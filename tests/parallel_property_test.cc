// Property sweeps for the parallel primitives, parameterized by size —
// these are the substrate of the batch-update algorithms (Section 5), so
// their contracts are checked at sizes from trivial to well past the
// parallel grain, against sequential reference computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "parallel/hash_table.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {
namespace {

class SizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeSweep, ScanMatchesSequential) {
  size_t n = GetParam();
  util::SplitMix64 rng(n);
  std::vector<long long> v(n);
  for (auto& x : v) x = static_cast<long long>(rng.next(1000)) - 500;
  std::vector<long long> expect = v;
  long long acc = 0;
  for (size_t i = 0; i < n; ++i) {
    long long x = expect[i];
    expect[i] = acc;
    acc += x;
  }
  std::vector<long long> got = v;
  long long total = scan_exclusive(got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

TEST_P(SizeSweep, ReduceMatchesAccumulate) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 1);
  std::vector<long long> v(n);
  for (auto& x : v) x = static_cast<long long>(rng.next(1 << 20));
  long long expect = std::accumulate(v.begin(), v.end(), 0LL);
  EXPECT_EQ(reduce(v, 0LL, [](long long a, long long b) { return a + b; }),
            expect);
  long long mx = v.empty() ? -1 : *std::max_element(v.begin(), v.end());
  EXPECT_EQ(reduce(v, -1LL,
                   [](long long a, long long b) { return a > b ? a : b; }),
            mx);
}

TEST_P(SizeSweep, FilterKeepsOrderAndElements) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 2);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng.next(1000));
  auto pred = [](uint32_t x) { return x % 3 == 0; };
  std::vector<uint32_t> expect;
  for (uint32_t x : v)
    if (pred(x)) expect.push_back(x);
  EXPECT_EQ(filter(v, pred), expect);
  // The predicate runs once per element (claim-style predicates rely on it):
  // filter an index array and count the calls per index.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::vector<std::atomic<uint32_t>> calls(n);
  auto kept = filter(idx, [&](size_t i) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
    return pred(v[i]);
  });
  EXPECT_EQ(kept.size(), expect.size());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(calls[i].load(), 1u) << "i=" << i;
}

TEST_P(SizeSweep, EmitKeepsIndexOrderAndRunsBodiesOnce) {
  size_t n = GetParam();
  // Index i emits i % 4 items (none for every fourth index), so blocks
  // emit unequal counts.
  std::vector<std::pair<size_t, size_t>> expect;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < i % 4; ++j) expect.emplace_back(i, j);
  std::vector<std::atomic<uint32_t>> calls(n);
  auto got = emit<std::pair<size_t, size_t>>(n, [&](size_t i, auto& out) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
    for (size_t j = 0; j < i % 4; ++j) out({i, j});
  });
  EXPECT_EQ(got, expect);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(calls[i].load(), 1u) << "i=" << i;
}

TEST_P(SizeSweep, SortIsSortedPermutation) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 3);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.next(97);  // many duplicates
  std::vector<uint64_t> expect = v;
  std::sort(expect.begin(), expect.end());
  sort(v);
  EXPECT_EQ(v, expect);
}

TEST_P(SizeSweep, GroupByKeyPartitionsExactly) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 4);
  std::vector<std::pair<uint32_t, uint32_t>> kv(n);
  std::map<uint32_t, std::multiset<uint32_t>> expect;
  for (size_t i = 0; i < n; ++i) {
    kv[i] = {static_cast<uint32_t>(rng.next(n / 4 + 1)),
             static_cast<uint32_t>(i)};
    expect[kv[i].first].insert(kv[i].second);
  }
  auto groups = group_by_key(kv);
  // Groups tile [0, n), keys within a group are uniform and distinct
  // across groups, and each group's value multiset matches.
  size_t covered = 0;
  std::set<uint32_t> seen_keys;
  for (auto [b, e] : groups) {
    ASSERT_LT(b, e);
    covered += e - b;
    uint32_t key = kv[b].first;
    ASSERT_TRUE(seen_keys.insert(key).second) << "key split across groups";
    std::multiset<uint32_t> vals;
    for (size_t i = b; i < e; ++i) {
      ASSERT_EQ(kv[i].first, key);
      vals.insert(kv[i].second);
    }
    ASSERT_EQ(vals, expect[key]);
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(seen_keys.size(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(0, 1, 2, 3, 17, 100, 256, 257,
                                           2047, 2048, 2049, 10000, 100000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// Both instantiations of the one table core, against std::unordered_map
// (the set ignores the oracle's values).
template <class Table>
class ConcurrentTableProperty : public ::testing::Test {};
using TableTypes = ::testing::Types<ConcurrentSet, ConcurrentMap>;
TYPED_TEST_SUITE(ConcurrentTableProperty, TableTypes);

TYPED_TEST(ConcurrentTableProperty, RandomOpsMatchStdContainer) {
  using Table = TypeParam;
  constexpr bool kMap = std::is_same_v<Table, ConcurrentMap>;
  constexpr int64_t kAbsent = -1;  // get()'s fallback; stored values are >= 0
  std::unordered_map<uint64_t, int64_t> ref;
  // Full comparison: membership, get() with its fallback, for_each pairs.
  auto audit = [&](const Table& t) {
    for (uint64_t k = 1; k <= 500; ++k) {
      auto it = ref.find(k);
      ASSERT_EQ(t.contains(k), it != ref.end()) << "key " << k;
      if constexpr (kMap) {
        ASSERT_EQ(t.get(k, kAbsent), it == ref.end() ? kAbsent : it->second)
            << "key " << k;
      }
    }
    size_t visited = 0;
    if constexpr (kMap) {
      t.for_each([&](uint64_t k, int64_t v) {
        ++visited;
        auto it = ref.find(k);
        ASSERT_TRUE(it != ref.end()) << "key " << k;
        EXPECT_EQ(v, it->second) << "key " << k;
      });
    } else {
      t.for_each([&](uint64_t k) {
        ++visited;
        EXPECT_EQ(ref.count(k), 1u) << "key " << k;
      });
    }
    ASSERT_EQ(visited, ref.size());
    ASSERT_EQ(t.size(), ref.size());
  };

  // Phase-concurrent contract: capacity is managed by the caller via
  // reserve() at phase boundaries (the batch-update algorithms do exactly
  // this), so size the table for the key space and re-reserve
  // periodically to flush tombstones.
  Table table(2048);
  util::SplitMix64 rng(77);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.next(500) + 1;  // small key space: heavy collisions
    int64_t value = static_cast<int64_t>(rng.next(1000));
    switch (rng.next(3)) {
      case 0: {
        bool fresh;
        if constexpr (kMap)
          fresh = table.insert(key, value);  // present key: overwrite
        else
          fresh = table.insert(key);
        ASSERT_EQ(fresh, ref.count(key) == 0) << "step " << step;
        ref[key] = value;
        break;
      }
      case 1:
        ASSERT_EQ(table.erase(key), ref.erase(key) > 0) << "step " << step;
        break;
      default:
        ASSERT_EQ(table.contains(key), ref.count(key) > 0) << "step " << step;
        if constexpr (kMap) {
          ASSERT_EQ(table.get(key, kAbsent),
                    ref.count(key) ? ref[key] : kAbsent)
              << "step " << step;
        }
    }
    if (step % 4096 == 0) {
      table.reserve(2048);  // phase boundary: rehash away tombstones
      ASSERT_NO_FATAL_FAILURE(audit(table)) << "audit " << step;
      Table copy(table);
      ASSERT_NO_FATAL_FAILURE(audit(copy)) << "copy " << step;
    }
  }
  ASSERT_NO_FATAL_FAILURE(audit(table));
}

TEST(SchedulerProperty, ParallelForWritesEveryIndexOnce) {
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{10007}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

}  // namespace
}  // namespace ufo::par
