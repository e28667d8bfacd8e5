// Tests for the fork-join runtime and parallel primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/hash_table.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {
namespace {

TEST(Scheduler, NumWorkersPositive) { EXPECT_GE(num_workers(), 1); }

TEST(Scheduler, ParallelForCoversRange) {
  constexpr size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, ParallelForEmptyAndSingle) {
  int count = 0;
  parallel_for(5, 5, [&](size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](size_t i) { EXPECT_EQ(i, 7u); ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, ParDoRunsBoth) {
  std::atomic<int> a{0}, b{0};
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(Scheduler, NestedParDo) {
  std::atomic<int> total{0};
  par_do(
      [&] {
        par_do([&] { total += 1; }, [&] { total += 2; });
      },
      [&] {
        par_do([&] { total += 4; }, [&] { total += 8; });
      });
  EXPECT_EQ(total.load(), 15);
}

TEST(Scheduler, NestedParallelFor) {
  constexpr size_t n = 64;
  std::vector<std::atomic<int>> hits(n * n);
  parallel_for(0, n, [&](size_t i) {
    parallel_for(0, n, [&](size_t j) { hits[i * n + j].fetch_add(1); });
  });
  for (size_t i = 0; i < n * n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// Forks nested deeper than a worker's deque holds (256 jobs) run both
// arms inline once the deque is full; every arm still runs exactly once.
void nest(size_t depth, std::vector<int>& left, std::vector<int>& right) {
  if (depth == 0) return;
  par_do(
      [&] {
        left[depth - 1] += 1;
        nest(depth - 1, left, right);
      },
      [&] { right[depth - 1] += 1; });
}

TEST(Scheduler, ParDoDeeperThanDequeRunsInline) {
  constexpr size_t kDepth = 1000;
  std::vector<int> left(kDepth, 0), right(kDepth, 0);
  nest(kDepth, left, right);
  for (size_t d = 0; d < kDepth; ++d) {
    EXPECT_EQ(left[d], 1) << d;
    EXPECT_EQ(right[d], 1) << d;
  }
}

// Idle workers sleep after a window of a few milliseconds; a fork must wake
// them (or run without them) every time, with no wakeup lost.
TEST(Scheduler, ParallelForAfterWorkersSleep) {
  constexpr size_t n = 4096;
  std::vector<int> hits(n, 0);
  for (int round = 1; round <= 50; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    parallel_for(0, n, [&](size_t i) { hits[i] += 1; });
    ASSERT_EQ(hits[0], round);
    ASSERT_EQ(hits[n - 1], round);
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 50) << i;
}

// An exception in either arm reaches the forker, whether the arm ran inline
// or on a thief, and the fork returns only after both arms are done.
TEST(Scheduler, ParDoPropagatesExceptions) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(par_do([&] { ran += 1; },
                        [&] {
                          ran += 1;
                          throw std::runtime_error("right");
                        }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_THROW(parallel_for(0, 64,
                              [&](size_t i) {
                                if (i == 37) throw std::runtime_error("body");
                              }),
                 std::runtime_error);
  }
}

void check_ids(int depth, std::atomic<int>& bad, std::atomic<int>& leaves) {
  int id = worker_id();
  if (id < 0 || id >= num_workers()) bad.fetch_add(1);
  if (depth == 0) {
    leaves.fetch_add(1);
    return;
  }
  par_do([&] { check_ids(depth - 1, bad, leaves); },
         [&] { check_ids(depth - 1, bad, leaves); });
  id = worker_id();
  if (id < 0 || id >= num_workers()) bad.fetch_add(1);
}

TEST(Scheduler, WorkerIdInRangeUnderNestedParDo) {
  std::atomic<int> bad{0}, leaves{0};
  check_ids(12, bad, leaves);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(leaves.load(), 1 << 12);
}

TEST(Primitives, ScanExclusive) {
  std::vector<int64_t> v(9999, 1);
  int64_t total = scan_exclusive(v);
  EXPECT_EQ(total, 9999);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], (int64_t)i);
}

TEST(Primitives, ScanSmall) {
  std::vector<int64_t> v{3, 1, 4, 1, 5};
  int64_t total = scan_exclusive(v);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<int64_t>{0, 3, 4, 8, 9}));
}

TEST(Primitives, Filter) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto evens = filter(v, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(evens.size(), 5000u);
  for (size_t i = 0; i < evens.size(); ++i) EXPECT_EQ(evens[i], (int)(2 * i));
}

TEST(Primitives, GroupByKeysAreTheDistinctKeys) {
  std::vector<uint64_t> v{5, 3, 5, 5, 1, 3, 9};
  auto g = group_by(v.size(), [&](size_t i) { return v[i]; });
  EXPECT_EQ(g.keys, (std::vector<uint64_t>{1, 3, 5, 9}));
}

TEST(Primitives, GroupBy) {
  std::vector<uint32_t> key{2, 1, 2, 3, 1, 2};
  auto g = group_by(key.size(), [&](size_t i) { return key[i]; });
  // Keys ascending: 1 (items 1, 4), 2 (items 0, 2, 5), 3 (item 3), each
  // group's items in index order.
  EXPECT_EQ(g.keys, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(g.start, (std::vector<uint32_t>{0, 2, 5, 6}));
  EXPECT_EQ(g.at, (std::vector<uint32_t>{1, 4, 0, 2, 5, 3}));
}

TEST(HashTable, InsertContainsErase) {
  ConcurrentSet set(100);
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.contains(42));
  EXPECT_FALSE(set.contains(43));
  EXPECT_TRUE(set.erase(42));
  EXPECT_FALSE(set.erase(42));
  EXPECT_FALSE(set.contains(42));
  EXPECT_EQ(set.size(), 0u);
}

TEST(HashTable, ConcurrentInserts) {
  constexpr size_t n = 20000;
  ConcurrentSet set(n);
  parallel_for(0, n, [&](size_t i) { set.insert(i); });
  EXPECT_EQ(set.size(), n);
  parallel_for(0, n, [&](size_t i) { EXPECT_TRUE(set.contains(i)); });
  size_t visited = 0;
  set.for_each([&](uint64_t key) {
    EXPECT_LT(key, n);
    ++visited;
  });
  EXPECT_EQ(visited, n);
}

// Regression: reserve(n) used to size the new table from n alone, ignoring
// live keys. Reserving a small headroom on a large live set then rehashed
// the live keys into a table they cannot fit (load factor >= 1), and the
// next insert would spin forever on a full probe chain. Before the fix this
// test hangs in reserve(); after it, the table counts live keys and grows.
TEST(HashTable, ReserveSmallOnLargeLiveSet) {
  ConcurrentSet set;
  set.reserve(100);
  for (uint64_t i = 0; i < 100; ++i) set.insert(i);
  ASSERT_EQ(set.size(), 100u);
  // Headroom request far below the live count. The undersized computation
  // (2 * (30 + 1) -> 64 slots < 100 live keys) tripped exactly here.
  set.reserve(30);
  EXPECT_GE(set.capacity(), 2 * (100 + 30));
  for (uint64_t i = 100; i < 130; ++i) EXPECT_TRUE(set.insert(i));
  EXPECT_EQ(set.size(), 130u);
  for (uint64_t i = 0; i < 130; ++i) EXPECT_TRUE(set.contains(i));
}

// Regression: the capacity doubling loop `while (want < 2 * (n + 1))` could
// overflow `want` to 0 for adversarially large n and never terminate.
// capacity_for saturates at kMaxCapacity instead (and never multiplies, so
// the comparison itself cannot overflow).
TEST(HashTable, CapacityForClampsAdversarialRequests) {
  EXPECT_EQ(ConcurrentSet::capacity_for(0, 0), 16u);
  EXPECT_EQ(ConcurrentSet::capacity_for(0, 7), 16u);
  EXPECT_EQ(ConcurrentSet::capacity_for(0, 8), 32u);
  EXPECT_EQ(ConcurrentSet::capacity_for(100, 30), 512u);
  EXPECT_EQ(ConcurrentSet::capacity_for(0, SIZE_MAX),
            ConcurrentSet::kMaxCapacity);
  EXPECT_EQ(ConcurrentSet::capacity_for(SIZE_MAX, SIZE_MAX),
            ConcurrentSet::kMaxCapacity);
  EXPECT_EQ(ConcurrentSet::capacity_for(SIZE_MAX / 2, 1),
            ConcurrentSet::kMaxCapacity);
}

// Regression: reserve()'s early return used to consider live keys only.
// Tombstones occupy probe slots and never revert to empty outside a
// rehash, so sustained insert/erase churn at a stable live size consumed
// every empty slot — after which any absent-key probe (contains/insert/
// erase of a missing key) spun forever. reserve() now counts tombstones
// toward occupancy and rehashes (dropping them) when the sum passes half
// the table; before the fix this test hangs inside contains().
TEST(HashTable, TombstoneChurnKeepsEmptySlots) {
  ConcurrentSet set;
  set.reserve(8);
  for (uint64_t i = 0; i < 10000; ++i) {
    set.reserve(1);  // phase boundary, EdgeStore::insert-style
    set.insert(i);
    EXPECT_FALSE(set.contains(i + 1));  // absent probe must terminate
    EXPECT_TRUE(set.erase(i));
  }
  EXPECT_EQ(set.size(), 0u);
  // Live size never exceeded 1, so periodic rehashes keep the table tiny
  // instead of letting tombstones force growth.
  EXPECT_LE(set.capacity(), 64u);
}

TEST(HashTable, ReserveRehashesAndDropsTombstones) {
  ConcurrentSet set(8);
  for (uint64_t i = 0; i < 8; ++i) set.insert(i);
  for (uint64_t i = 0; i < 4; ++i) set.erase(i);
  set.reserve(1000);
  EXPECT_EQ(set.size(), 4u);
  for (uint64_t i = 4; i < 8; ++i) EXPECT_TRUE(set.contains(i));
  for (uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(set.contains(i));
}

// Regression: reserve() used to rehash whenever live + tombstones + n
// passed half the table, even when the live set alone fit. A table just
// under half full then rehashed into a table of the same size on every
// erase/reserve/re-insert round (the connectivity weight map did this on
// every batch). The rehash now waits until the sum passes 3/4, so churn
// that reuses its tombstones never rehashes, and a same-size rehash costs
// O(capacity) only after capacity/4 tombstones have accumulated.
TEST(HashTable, TombstoneHeadroomAvoidsSameSizeRehash) {
  constexpr size_t kLive = 2015, kBatch = 64;  // cap/2 - n < L < cap/2
  ConcurrentSet set(kLive);
  ASSERT_EQ(set.capacity(), 4096u);
  for (uint64_t k = 0; k < kLive; ++k) ASSERT_TRUE(set.insert(k));
  int rehashes = 0;
  for (uint64_t round = 0; round < 64; ++round) {
    uint64_t base = (round * kBatch) % (kLive - kBatch);
    for (uint64_t k = base; k < base + kBatch; ++k) ASSERT_TRUE(set.erase(k));
    size_t tombs_before = set.tombstones();
    set.reserve(kBatch);  // phase boundary
    if (tombs_before > 0 && set.tombstones() == 0) ++rehashes;
    ASSERT_EQ(set.capacity(), 4096u) << "round " << round;
    for (uint64_t k = base; k < base + kBatch; ++k) ASSERT_TRUE(set.insert(k));
  }
  EXPECT_EQ(set.size(), kLive);
  EXPECT_LE(rehashes, 4);
}

}  // namespace
}  // namespace ufo::par
