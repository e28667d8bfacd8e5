// Deterministic fault-injection coverage (src/util/fault.h). The Injector
// unit tests run in every build; the tests that need the UFO_FAULT_POINT
// sites compiled in GTEST_SKIP unless the library was built with
// -DUFO_FAULT_INJECTION=ON (the CI fault-injection job builds that
// configuration under ASan).
//
// What the injected faults must prove:
//   * a torn checkpoint write returns kIoError and leaves the previously
//     published checkpoint loadable (the crash-consistency contract);
//   * a bit flip on the read path surfaces as a typed RecoveryError;
//   * allocation failure while rebuilding pools during load returns
//     kAllocFailed instead of crashing;
//   * a failed bulk hash reservation degrades batch_insert to the
//     sequential path (kDegradedAlloc) with every edge still applied;
//   * batch_erase makes no hash reservation at all, so it cannot degrade.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "connectivity/connectivity.h"
#include "graph/generators.h"
#include "recovery/snapshot.h"
#include "seq/ufo_tree.h"
#include "util/fault.h"
#include "util/random.h"

namespace ufo {
namespace {

using recovery::ForestSerializer;
using recovery::LoadOptions;
using recovery::LoadStats;
using recovery::RecoveryError;

#if defined(UFO_FAULT_INJECTION) && UFO_FAULT_INJECTION
constexpr bool kFaultBuild = true;
#else
constexpr bool kFaultBuild = false;
#endif

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "ufo_fault_" + std::to_string(getpid()) + "_" +
         name;
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }
};

// --- Injector mechanics (any build) ----------------------------------------

TEST_F(FaultTest, NthFiresExactlyOnce) {
  auto& inj = fault::Injector::instance();
  inj.arm_nth("unit.site", 2);
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    if (inj.should_fire("unit.site")) ++fired;
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(inj.hits("unit.site"), 10u);
  EXPECT_EQ(inj.fired("unit.site"), 1u);
  EXPECT_EQ(inj.total_fired(), 1u);
}

TEST_F(FaultTest, NthCountsFromArmingPoint) {
  auto& inj = fault::Injector::instance();
  for (int i = 0; i < 5; ++i) (void)inj.should_fire("unit.site2");
  inj.arm_nth("unit.site2", 0);  // the very next hit
  EXPECT_TRUE(inj.should_fire("unit.site2"));
  EXPECT_FALSE(inj.should_fire("unit.site2"));
}

TEST_F(FaultTest, DisarmStopsFiring) {
  auto& inj = fault::Injector::instance();
  inj.arm_nth("unit.site3", 1);
  inj.disarm();
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(inj.should_fire("unit.site3"));
}

TEST_F(FaultTest, RateModeIsDeterministicPerSeed) {
  auto& inj = fault::Injector::instance();
  auto pattern = [&](uint64_t seed) {
    inj.reset();
    inj.arm_rate(seed, 0.25);
    std::vector<bool> p;
    for (int i = 0; i < 200; ++i) p.push_back(inj.should_fire("rate.site"));
    return p;
  };
  std::vector<bool> a = pattern(42), b = pattern(42), c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  size_t fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 20u);   // ~50 expected at rate 0.25
  EXPECT_LT(fires, 100u);
  inj.reset();
  inj.arm_rate(7, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.should_fire("rate.site"));
}

// --- Injected faults (UFO_FAULT_INJECTION builds) --------------------------

TEST_F(FaultTest, TornWritePreservesPreviousCheckpoint) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  const std::string path = tmp_path("torn.snap");
  size_t n = 300;
  seq::UfoTree t(n);
  t.batch_link(gen::pref_attach(n, 5));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  // Record the published state before mutating further.
  std::vector<int64_t> before;
  for (Vertex v = 1; v < n; v += 13) before.push_back(t.path_length(0, v));

  EdgeList cuts;
  for (Vertex v = 1; v < 40; ++v)
    if (t.has_edge(0, v)) cuts.push_back({0, v, 1});
  if (!cuts.empty()) t.batch_cut(cuts);

  fault::Injector::instance().arm_nth("snapshot.torn_write", 0);
  EXPECT_EQ(ForestSerializer::save(t, path), RecoveryError::kIoError);

  // The torn publish must not have touched the previous checkpoint.
  seq::UfoTree fresh(n);
  ASSERT_EQ(ForestSerializer::load(fresh, path), RecoveryError::kNone);
  ASSERT_TRUE(fresh.check_valid());
  size_t i = 0;
  for (Vertex v = 1; v < n; v += 13)
    EXPECT_EQ(fresh.path_length(0, v), before[i++]) << v;

  // The nth trigger is spent: the next save must publish the new state
  // (overwriting any leftover temp file).
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  seq::UfoTree fresh2(n);
  ASSERT_EQ(ForestSerializer::load(fresh2, path), RecoveryError::kNone);
  if (!cuts.empty())
    EXPECT_FALSE(fresh2.connected(cuts[0].u, cuts[0].v));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(FaultTest, ReadBitFlipIsTypedError) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  const std::string path = tmp_path("flip.snap");
  size_t n = 300;
  seq::UfoTree t(n);
  t.batch_link(gen::random_degree3(n, 3));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  fault::Injector::instance().arm_nth("snapshot.read.flip", 0);
  seq::UfoTree fresh(n);
  LoadStats st;
  RecoveryError e = ForestSerializer::load(fresh, path, LoadOptions{}, &st);
  // The flip lands mid-file; the section CRCs must catch it — either
  // fatally or (if it hits the aggregate section) via the degrade path.
  EXPECT_TRUE(e != RecoveryError::kNone || st.degraded)
      << "bit flip went unnoticed: " << recovery::to_string(e);

  // Trigger spent: a clean re-load succeeds.
  seq::UfoTree fresh2(n);
  ASSERT_EQ(ForestSerializer::load(fresh2, path), RecoveryError::kNone);
  EXPECT_TRUE(fresh2.check_valid());
  std::remove(path.c_str());
}

TEST_F(FaultTest, AllocFailureDuringLoadIsTyped) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  const std::string path = tmp_path("alloc.snap");
  size_t n = 300;
  seq::UfoTree t(n);
  t.batch_link(gen::star(n));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  for (uint64_t nth : {0ull, 3ull, 17ull}) {
    fault::Injector::instance().reset();
    seq::UfoTree fresh(n);  // construct before arming: ctor allocates too
    fault::Injector::instance().arm_nth("pool.slab.alloc", nth);
    RecoveryError e = ForestSerializer::load(fresh, path);
    fault::Injector::instance().disarm();
    EXPECT_EQ(e, RecoveryError::kAllocFailed) << "nth=" << nth;
  }

  // No injection: the same file loads fine.
  fault::Injector::instance().reset();
  seq::UfoTree fresh(n);
  ASSERT_EQ(ForestSerializer::load(fresh, path), RecoveryError::kNone);
  EXPECT_TRUE(fresh.check_valid());
  std::remove(path.c_str());
}

TEST_F(FaultTest, HashReserveFailureDegradesBatchInsert) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  size_t n = 300;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  EdgeList edges = gen::social_graph(n, 4, 19);
  fault::Injector::instance().arm_nth("hash.reserve", 0);
  conn::BatchStatus st = g.batch_insert(edges);
  fault::Injector::instance().disarm();
  EXPECT_EQ(st, conn::BatchStatus::kDegradedAlloc);
  // Degraded means slower, not lossy: every edge applied, audit clean.
  for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
  ASSERT_TRUE(g.check_valid());

  // Subsequent batches take the fast path again and stay consistent.
  EdgeList drop;
  for (size_t i = 0; i < edges.size(); i += 4) drop.push_back(edges[i]);
  g.batch_erase(drop);
  EXPECT_EQ(g.batch_insert(drop), conn::BatchStatus::kOk);
  ASSERT_TRUE(g.check_valid());
}

TEST_F(FaultTest, BatchEraseMakesNoHashReservation) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  // A grid is cycle-rich: batch-erasing a big random subset forces the
  // replacement search to promote many non-tree edges. Promotion is a
  // forest batch_link plus non-tree erases (tombstones), so the whole
  // batch_erase reaches no hash.reserve site: an armed fault never fires,
  // and the batch completes on the fast path.
  constexpr size_t side = 14;
  size_t n = side * side;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  EdgeList edges = gen::grid_graph(side, side);
  ASSERT_EQ(g.batch_insert(edges), conn::BatchStatus::kOk);
  util::shuffle(edges, 4);
  EdgeList drop(edges.begin(), edges.begin() + edges.size() / 2);

  auto& inj = fault::Injector::instance();
  inj.arm_nth("hash.reserve", 0);
  const uint64_t hits_before = inj.hits("hash.reserve");
  conn::BatchStatus st = g.batch_erase(drop);
  const uint64_t hits_after = inj.hits("hash.reserve");
  inj.disarm();
  EXPECT_EQ(hits_after, hits_before);
  EXPECT_EQ(st, conn::BatchStatus::kOk);
  for (const Edge& e : drop) EXPECT_FALSE(g.has_edge(e.u, e.v));
  ASSERT_TRUE(g.check_valid());
}

// Random low-rate faulting across every site on the load path: each
// attempt must end in a typed error or a fully valid tree — never a crash
// (ASan in CI turns any leak/overflow from an abandoned half-load into a
// failure here).
TEST_F(FaultTest, RateSweepLoadNeverCrashes) {
  if (!kFaultBuild) GTEST_SKIP() << "built without UFO_FAULT_INJECTION";
  const std::string path = tmp_path("rate.snap");
  size_t n = 250;
  seq::UfoTree t(n);
  t.batch_link(gen::pref_attach(n, 23));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  int clean = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    fault::Injector::instance().reset();
    seq::UfoTree fresh(n);  // ctor allocates: keep it outside the fault window
    fault::Injector::instance().arm_rate(seed, 0.002);
    LoadStats st;
    RecoveryError e = ForestSerializer::load(fresh, path, LoadOptions{}, &st);
    fault::Injector::instance().disarm();
    if (e == RecoveryError::kNone) {
      ++clean;
      EXPECT_TRUE(fresh.check_valid()) << "seed " << seed;
    } else {
      ++failed;
    }
  }
  // At 0.2% per site hit over thousands of hits, both outcomes occur; the
  // invariant under test is only "typed or valid", so just log the split.
  SCOPED_TRACE("clean=" + std::to_string(clean) +
               " failed=" + std::to_string(failed));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ufo
