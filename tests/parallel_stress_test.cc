// Phase-concurrency stress: hammer the phase-concurrent structures
// (ConcurrentSet, ConcurrentMap, EdgeStore) through insert-barrier-erase
// phase cycles and deeply nested fork-join, asserting contents against
// mutex-guarded oracles. Registered in CMake with UFOTREE_NUM_THREADS=4 so
// the scheduler actually runs multiple workers (they timeshare on small
// hosts; the interleavings — and TSan's view of them — are what matters).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "connectivity/edge_store.h"
#include "parallel/hash_table.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {
namespace {

TEST(StressSetup, RunsMultiThreaded) {
  // The CMake registration pins UFOTREE_NUM_THREADS=4; if this fires, the
  // rest of the file is quietly testing nothing concurrent.
  EXPECT_GE(num_workers(), 4) << "stress tests expect UFOTREE_NUM_THREADS>=4";
}

// Insert phase -> barrier -> contains/erase phase -> barrier, repeated, with
// reserve() growing the table between phases while keys are live (the
// reserve-undersizing regression scenario, now under contention).
TEST(StressConcurrentSet, PhaseCyclesAgainstMutexOracle) {
  ConcurrentSet set(64);
  std::set<uint64_t> oracle;
  std::mutex mu;
  uint64_t next_key = 1;
  for (int round = 0; round < 20; ++round) {
    size_t adds = 500 + 137 * static_cast<size_t>(round);
    // Phase boundary: deliberately reserve *less* than the live count so a
    // sizing bug that ignores live keys would wedge the rehash.
    set.reserve(adds / 2);
    set.reserve(adds);
    uint64_t base = next_key;
    next_key += adds;
    // Concurrent insert phase (grain 1 spreads tasks across workers). Each
    // key is also offered twice to exercise the duplicate path.
    parallel_for(
        0, 2 * adds,
        [&](size_t i) {
          uint64_t key = base + (i % adds);
          bool fresh = set.insert(key);
          if (fresh) {
            std::lock_guard<std::mutex> lock(mu);
            oracle.insert(key);
          }
        },
        /*grain=*/1);
    // Barrier reached (parallel_for joined). Read phase.
    parallel_for(0, adds, [&](size_t i) {
      ASSERT_TRUE(set.contains(base + i));
    });
    // Concurrent erase phase: drop a pseudo-random half.
    parallel_for(
        0, adds,
        [&](size_t i) {
          uint64_t key = base + i;
          if (util::hash64(key) & 1) {
            bool had = set.erase(key);
            if (had) {
              std::lock_guard<std::mutex> lock(mu);
              oracle.erase(key);
            }
          }
        },
        /*grain=*/1);
    // Phase boundary: full content comparison against the oracle.
    std::vector<uint64_t> got;
    set.for_each([&](uint64_t key) { got.push_back(key); });
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want(oracle.begin(), oracle.end());
    ASSERT_EQ(got, want) << "round " << round;
    ASSERT_EQ(set.size(), oracle.size());
  }
}

// The map instantiation through the same phase cycles: concurrent
// inserts of fresh keys plus overwrites of surviving keys, a barrier, a
// concurrent read phase checking values, then concurrent erases, with a
// full (key, value) comparison against a mutex-guarded oracle at each
// boundary.
TEST(StressConcurrentMap, PhaseCyclesAgainstMutexOracle) {
  ConcurrentMap map(64);
  std::map<uint64_t, int64_t> oracle;
  std::mutex mu;
  uint64_t next_key = 1;
  auto value_of = [](uint64_t key, int round) {
    return static_cast<int64_t>(util::hash64(key) % 1000) + 1000 * round;
  };
  for (int round = 0; round < 20; ++round) {
    size_t adds = 500 + 137 * static_cast<size_t>(round);
    std::vector<uint64_t> keys;  // this round's fresh keys, then survivors
    for (size_t i = 0; i < adds; ++i) keys.push_back(next_key++);
    for (const auto& [key, value] : oracle) keys.push_back(key);
    map.reserve(adds);  // phase boundary: survivors are already present
    parallel_for(
        0, keys.size(),
        [&](size_t i) {
          bool fresh = map.insert(keys[i], value_of(keys[i], round));
          std::lock_guard<std::mutex> lock(mu);
          ASSERT_EQ(fresh, i < adds) << "key " << keys[i];
          oracle[keys[i]] = value_of(keys[i], round);
        },
        /*grain=*/1);
    // Barrier reached. Read phase: every value is this round's.
    parallel_for(0, keys.size(), [&](size_t i) {
      ASSERT_EQ(map.get(keys[i], -1), value_of(keys[i], round));
    });
    // Concurrent erase phase: drop a pseudo-random half.
    parallel_for(
        0, keys.size(),
        [&](size_t i) {
          if (util::hash64(keys[i] + static_cast<uint64_t>(round)) & 1) {
            bool had = map.erase(keys[i]);
            std::lock_guard<std::mutex> lock(mu);
            ASSERT_TRUE(had) << "key " << keys[i];
            oracle.erase(keys[i]);
          }
        },
        /*grain=*/1);
    // Phase boundary: full content comparison against the oracle.
    std::map<uint64_t, int64_t> got;
    map.for_each([&](uint64_t key, int64_t value) { got[key] = value; });
    ASSERT_EQ(got, oracle) << "round " << round;
    ASSERT_EQ(map.size(), oracle.size());
  }
}

TEST(StressEdgeStore, PhaseCyclesAgainstMutexOracle) {
  constexpr size_t n = 200;
  conn::EdgeStore store(n);
  std::set<uint64_t> oracle;  // edge_key canonical form
  std::mutex mu;
  util::SplitMix64 rng(99);
  for (int round = 0; round < 12; ++round) {
    // Build a batch of distinct candidate edges (phase contract: no two
    // concurrent inserts of the same edge are required to both report
    // fresh, but distinct edges must all land).
    EdgeList batch;
    std::set<uint64_t> seen;
    for (int i = 0; i < 800; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      if (u == v) continue;
      if (!seen.insert(edge_key(u, v)).second) continue;
      batch.push_back({u, v, 1});
    }
    ASSERT_TRUE(store.try_reserve_batch(batch));  // phase boundary
    parallel_for(
        0, batch.size(),
        [&](size_t i) {
          bool fresh = store.insert_concurrent(batch[i].u, batch[i].v);
          if (fresh) {
            std::lock_guard<std::mutex> lock(mu);
            oracle.insert(edge_key(batch[i].u, batch[i].v));
          }
        },
        /*grain=*/1);
    // Erase phase: every other edge of the batch (tombstones accumulate
    // across rounds, exercising probe chains through them).
    parallel_for(
        0, batch.size(),
        [&](size_t i) {
          if (i % 2 == 0) return;
          bool had = store.erase(batch[i].u, batch[i].v);
          if (had) {
            std::lock_guard<std::mutex> lock(mu);
            oracle.erase(edge_key(batch[i].u, batch[i].v));
          }
        },
        /*grain=*/1);
    // Phase boundary: degrees, membership, and edge count must agree.
    ASSERT_EQ(store.edges(), oracle.size()) << "round " << round;
    std::set<uint64_t> got;
    for (Vertex v = 0; v < n; ++v) {
      store.for_each_neighbor(v, [&](Vertex y) {
        got.insert(edge_key(v, y));
        ASSERT_TRUE(store.contains(v, y));
        ASSERT_TRUE(store.contains(y, v));
      });
    }
    ASSERT_EQ(got, oracle) << "round " << round;
  }
}

// Nested fork-join under contention: parallel_for spawning par_do spawning
// parallel_for, with every leaf ticking an atomic. Helping waiters make
// this deadlock-free; the count proves every leaf ran exactly once.
TEST(StressScheduler, DeepNesting) {
  constexpr size_t outer = 64, inner = 64;
  std::vector<std::atomic<uint32_t>> hits(outer * inner);
  parallel_for(
      0, outer,
      [&](size_t i) {
        par_do(
            [&] {
              parallel_for(
                  0, inner / 2,
                  [&](size_t j) { hits[i * inner + j].fetch_add(1); },
                  /*grain=*/1);
            },
            [&] {
              parallel_for(
                  inner / 2, inner,
                  [&](size_t j) { hits[i * inner + j].fetch_add(1); },
                  /*grain=*/1);
            });
      },
      /*grain=*/1);
  for (size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1u) << i;
}

// Mixed workload: concurrent set phases running inside nested par_do arms,
// the shape par::UfoTree's contraction uses (parallel_for bodies that
// themselves call parallel primitives).
TEST(StressScheduler, PrimitivesInsideNestedTasks) {
  ConcurrentSet set(4096);
  std::atomic<uint64_t> checksum{0};
  par_do(
      [&] {
        parallel_for(
            0, 1000, [&](size_t i) { set.insert(i); }, /*grain=*/1);
      },
      [&] {
        std::vector<uint64_t> v(5000);
        parallel_for(0, v.size(), [&](size_t i) { v[i] = i; });
        uint64_t sum = 0;
        for (uint64_t x : v) sum += x;
        checksum.fetch_add(sum);
      });
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_EQ(checksum.load(), 5000ull * 4999 / 2);
}

}  // namespace
}  // namespace ufo::par
