// Unit tests for core::SortedBag, the key -> count multiset backing the
// pooled rake indexes (src/core/sorted_bag.h). Differential against
// std::multiset over randomized insert/erase/min/max/top2 traffic, plus
// directed cases for duplicates at the top and for reads through a const
// bag.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/sorted_bag.h"
#include "util/random.h"

namespace ufo::core {
namespace {

void expect_matches(const SortedBag& bag,
                    const std::multiset<int64_t>& oracle, const char* ctx) {
  ASSERT_EQ(bag.size(), oracle.size()) << ctx;
  ASSERT_EQ(bag.empty(), oracle.empty()) << ctx;
  if (oracle.empty()) return;
  EXPECT_EQ(bag.min(), *oracle.begin()) << ctx;
  EXPECT_EQ(bag.max(), *oracle.rbegin()) << ctx;
  int64_t top[2];
  int got = bag.top2(top);
  auto it = oracle.rbegin();
  ASSERT_EQ(got, static_cast<int>(std::min<size_t>(oracle.size(), 2))) << ctx;
  EXPECT_EQ(top[0], *it) << ctx;
  if (got == 2) EXPECT_EQ(top[1], *++it) << ctx;
}

TEST(SortedBag, BasicInsertEraseMinMax) {
  SortedBag b;
  EXPECT_TRUE(b.empty());
  b.insert(5);
  b.insert(3);
  b.insert(9);
  b.insert(3);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.min(), 3);
  EXPECT_EQ(b.max(), 9);
  int64_t top[2];
  ASSERT_EQ(b.top2(top), 2);
  EXPECT_EQ(top[0], 9);
  EXPECT_EQ(top[1], 5);
  b.erase_one(9);
  EXPECT_EQ(b.max(), 5);
  b.erase_one(3);
  b.erase_one(3);
  EXPECT_EQ(b.min(), 5);
  b.erase_one(5);
  EXPECT_TRUE(b.empty());
}

TEST(SortedBag, Top2WithDuplicateMaximum) {
  SortedBag b;
  b.insert(7);
  b.insert(7);
  b.insert(1);
  int64_t top[2];
  ASSERT_EQ(b.top2(top), 2);
  EXPECT_EQ(top[0], 7);
  EXPECT_EQ(top[1], 7);  // a multiset: the duplicate counts as second
}

// Every read works through a const reference, so concurrent queries can
// share a bag: none of them may restructure it.
TEST(SortedBag, ReadsThroughConstReference) {
  SortedBag b;
  for (int64_t v : {4, 8, 8, 2, 6}) b.insert(v);
  const SortedBag& cb = b;
  EXPECT_EQ(cb.size(), 5u);
  EXPECT_FALSE(cb.empty());
  EXPECT_EQ(cb.min(), 2);
  EXPECT_EQ(cb.max(), 8);
  int64_t top[2];
  ASSERT_EQ(cb.top2(top), 2);
  EXPECT_EQ(top[0], 8);
  EXPECT_EQ(top[1], 8);
  b.erase_one(8);
  ASSERT_EQ(cb.top2(top), 2);
  EXPECT_EQ(top[0], 8);
  EXPECT_EQ(top[1], 6);
  SortedBag one;
  one.insert(3);
  const SortedBag& c1 = one;
  ASSERT_EQ(c1.top2(top), 1);
  EXPECT_EQ(top[0], 3);
  const SortedBag none;
  EXPECT_EQ(none.top2(top), 0);
}

// Random churn over a small key range, so counts rise, fall and reach zero
// (node removal) many times; verified against the oracle throughout.
TEST(SortedBag, DifferentialRandomChurn) {
  util::SplitMix64 rng(0xbadcafe);
  SortedBag bag;
  std::multiset<int64_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    bool do_insert = oracle.empty() || (rng.next() % 100) < 55;
    if (do_insert) {
      int64_t v = static_cast<int64_t>(rng.next() % 512) - 256;
      bag.insert(v);
      oracle.insert(v);
    } else {
      // Erase a value present in the oracle (biased toward the extremes,
      // which the reads look at).
      int64_t v;
      switch (rng.next() % 4) {
        case 0: v = *oracle.begin(); break;
        case 1: v = *oracle.rbegin(); break;
        default: {
          auto it = oracle.begin();
          std::advance(it, rng.next() % oracle.size());
          v = *it;
        }
      }
      bag.erase_one(v);
      oracle.erase(oracle.find(v));
    }
    if (step % 97 == 0) expect_matches(bag, oracle, "churn");
  }
  expect_matches(bag, oracle, "final");
}

// Deleting a long run of near-maximal values moves the top of the bag down
// past every erased key; top2 must follow it.
TEST(SortedBag, Top2SurvivesDeadRunAtTop) {
  SortedBag bag;
  std::multiset<int64_t> oracle;
  for (int64_t v = 0; v < 1000; ++v) {
    bag.insert(v);
    oracle.insert(v);
  }
  // Kill 900..998 (keeping 999 and everything below 900): a 99-slot dead
  // run right under the maximum.
  for (int64_t v = 900; v < 999; ++v) {
    bag.erase_one(v);
    oracle.erase(oracle.find(v));
  }
  expect_matches(bag, oracle, "dead run below max");
  bag.erase_one(999);
  oracle.erase(oracle.find(999));
  expect_matches(bag, oracle, "dead run at top");
}

TEST(SortedBag, MemoryBytesTracksCapacity) {
  SortedBag bag;
  EXPECT_EQ(bag.memory_bytes(), 0u);
  for (int64_t v = 0; v < 5000; ++v) bag.insert(v);
  size_t full = bag.memory_bytes();
  EXPECT_GT(full, 5000 * sizeof(int64_t) / 2);
  bag.clear();
  // clear() frees the nodes; accounting never reports more than the full
  // bag did.
  EXPECT_LE(bag.memory_bytes(), full);
}

}  // namespace
}  // namespace ufo::core
