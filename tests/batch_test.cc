// Batch-dynamic update tests: one shared reclustering pass must produce the
// same forest state as the equivalent sequence of single updates. The last
// suite pins the batch contract shared by seq::UfoTree, par::UfoTree and
// TopologyTree: a batch may cut an edge and link a replacement across it.
#include <gtest/gtest.h>

#include <type_traits>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "parallel/par_ufo_tree.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::seq {
namespace {

TEST(BatchUfo, BuildInBatches) {
  constexpr size_t n = 2000;
  for (auto& input : gen::synthetic_suite(n, 11)) {
    UfoTree t(n);
    auto edges = input.edges;
    util::shuffle(edges, 13);
    size_t k = 257;
    for (size_t i = 0; i < edges.size(); i += k) {
      std::vector<Edge> batch(edges.begin() + i,
                              edges.begin() + std::min(edges.size(), i + k));
      t.batch_link(batch);
    }
    EXPECT_TRUE(t.check_valid()) << input.name;
    EXPECT_TRUE(t.connected(0, static_cast<Vertex>(n - 1))) << input.name;
  }
}

TEST(BatchUfo, DestroyInBatches) {
  constexpr size_t n = 1500;
  auto edges = gen::pref_attach(n, 5);
  UfoTree t(n);
  t.batch_link(edges);
  ASSERT_TRUE(t.check_valid());
  util::shuffle(edges, 6);
  size_t k = 301;
  for (size_t i = 0; i < edges.size(); i += k) {
    std::vector<Edge> batch(edges.begin() + i,
                            edges.begin() + std::min(edges.size(), i + k));
    t.batch_cut(batch);
    ASSERT_TRUE(t.check_valid()) << i;
  }
  for (Vertex v = 1; v < n; ++v) ASSERT_FALSE(t.connected(0, v));
}

TEST(BatchUfo, MixedBatchesDifferential) {
  constexpr size_t n = 60;
  UfoTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(77);
  std::vector<std::pair<Vertex, Vertex>> live;
  for (int round = 0; round < 60; ++round) {
    std::vector<Update> batch;
    RefForest staged = ref;  // staging copy to keep the batch consistent
    // stage some deletions
    int dels = static_cast<int>(rng.next(4));
    for (int i = 0; i < dels && !live.empty(); ++i) {
      size_t idx = rng.next(live.size());
      auto [a, b] = live[idx];
      batch.push_back({a, b, 1, true});
      staged.cut(a, b);
      ref.cut(a, b);
      live[idx] = live.back();
      live.pop_back();
    }
    // stage some insertions (consistent in any order: endpoints not
    // connected even after all staged inserts)
    int adds = 1 + static_cast<int>(rng.next(5));
    for (int i = 0; i < adds; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      if (u == v || staged.connected(u, v)) continue;
      Weight w = 1 + static_cast<Weight>(rng.next(30));
      batch.push_back({u, v, w, false});
      staged.link(u, v, w);
      ref.link(u, v, w);
      live.push_back({u, v});
    }
    t.batch_update(batch);
    ASSERT_TRUE(t.check_valid()) << "round " << round;
    ASSERT_TRUE(t.check_aggregates()) << "round " << round;
    for (int i = 0; i < 30; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.connected(u, v), ref.connected(u, v)) << "round " << round;
      if (u != v && ref.connected(u, v)) {
        ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "round " << round;
        ASSERT_EQ(t.path_length(u, v),
                  static_cast<int64_t>(ref.path_length(u, v)));
      }
    }
  }
}

TEST(BatchTopology, BuildAndDestroyDegree3) {
  constexpr size_t n = 2000;
  auto edges = gen::random_degree3(n, 21);
  TopologyTree t(n);
  util::shuffle(edges, 22);
  size_t k = 199;
  for (size_t i = 0; i < edges.size(); i += k) {
    std::vector<Edge> batch(edges.begin() + i,
                            edges.begin() + std::min(edges.size(), i + k));
    t.batch_link(batch);
  }
  EXPECT_TRUE(t.check_valid());
  EXPECT_TRUE(t.connected(0, n - 1));
  util::shuffle(edges, 23);
  for (size_t i = 0; i < edges.size(); i += k) {
    std::vector<Edge> batch(edges.begin() + i,
                            edges.begin() + std::min(edges.size(), i + k));
    t.batch_cut(batch);
  }
  EXPECT_TRUE(t.check_valid());
  for (Vertex v = 1; v < n; ++v) ASSERT_FALSE(t.connected(0, v));
}

// The batch contract: each edge gets at most one update, deletions name
// current edges, and the insertions form a forest together with the
// current edges minus the batch's deletions. So one batch may cut an edge
// and link a replacement between the two sides the cut separates, i.e.
// link two vertices that are connected when the batch starts.
template <class Tree>
class BatchCutAndReplace : public ::testing::Test {};

using ContractTrees = ::testing::Types<UfoTree, par::UfoTree, TopologyTree>;
TYPED_TEST_SUITE(BatchCutAndReplace, ContractTrees);

TYPED_TEST(BatchCutAndReplace, MatchesOracle) {
  using Tree = TypeParam;
  constexpr bool kTopology = std::is_same_v<Tree, TopologyTree>;
  constexpr size_t n = 2000;
  EdgeList edges =
      kTopology ? gen::random_degree3(n, 31) : gen::random_unbounded(n, 31);
  util::SplitMix64 rng(32);
  for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(50));
  Tree t(n);
  RefForest ref(n);
  t.batch_link(edges);
  for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
  std::vector<Edge> live = edges;
  size_t replaced = 0;
  for (int round = 0; round < 200; ++round) {
    // Cut 1-6 edges; ref then holds the forest the insertions must extend.
    std::vector<Update> batch;
    std::vector<Edge> cuts;
    size_t k = 1 + rng.next(6);
    for (size_t i = 0; i < k; ++i) {
      size_t idx = rng.next(live.size());
      Edge e = live[idx];
      live[idx] = live.back();
      live.pop_back();
      cuts.push_back(e);
      batch.push_back({e.u, e.v, 0, true});
      ref.cut(e.u, e.v);
    }
    // Link a replacement across each cut whose sides are still apart: any
    // vertex pair except the cut edges themselves (one update per edge),
    // and degree <= 3 for the topology tree.
    auto is_cut = [&](Vertex a, Vertex b) {
      for (const Edge& c : cuts)
        if ((c.u == a && c.v == b) || (c.u == b && c.v == a)) return true;
      return false;
    };
    for (const Edge& c : cuts) {
      if (ref.connected(c.u, c.v)) continue;
      std::vector<Vertex> su = ref.component(c.u);
      std::vector<Vertex> sv = ref.component(c.v);
      for (int tries = 0; tries < 32; ++tries) {
        Vertex a = su[rng.next(su.size())];
        Vertex b = sv[rng.next(sv.size())];
        if (is_cut(a, b)) continue;
        if (kTopology && (ref.degree(a) >= 3 || ref.degree(b) >= 3)) continue;
        Weight w = 1 + static_cast<Weight>(rng.next(50));
        batch.push_back({a, b, w, false});
        ref.link(a, b, w);
        live.push_back({a, b, w});
        ++replaced;
        break;
      }
    }
    t.batch_update(batch);
    ASSERT_TRUE(t.check_valid()) << "round " << round;
    if constexpr (!kTopology)
      ASSERT_TRUE(t.check_aggregates()) << "round " << round;
    for (int i = 0; i < 40; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.connected(u, v), ref.connected(u, v)) << "round " << round;
      if (u != v && ref.connected(u, v)) {
        ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "round " << round;
        ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << "round " << round;
      }
    }
  }
  // Most cuts found a replacement, so the contract's cut-and-relink case
  // was exercised throughout.
  EXPECT_GT(replaced, 200u);
}

}  // namespace
}  // namespace ufo::seq
