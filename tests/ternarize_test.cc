// Tests for dynamic ternarization: the underlying forest must stay within
// degree 3 while faithfully answering queries on arbitrary-degree inputs.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "util/random.h"

namespace ufo::seq {
namespace {

using TernTopology = Ternarizer<TopologyTree>;

TEST(Ternarizer, StarStaysDegreeBounded) {
  constexpr size_t n = 100;
  TernTopology t(n);
  for (Vertex v = 1; v < n; ++v) t.link(0, v);
  EXPECT_EQ(t.degree(0), n - 1);
  EXPECT_TRUE(t.inner().check_valid());
  for (Vertex v = 1; v < n; ++v) EXPECT_TRUE(t.connected(0, v));
  EXPECT_TRUE(t.connected(17, 76));
}

TEST(Ternarizer, StarCutEveryOther) {
  constexpr size_t n = 80;
  TernTopology t(n);
  for (Vertex v = 1; v < n; ++v) t.link(0, v);
  for (Vertex v = 1; v < n; v += 2) t.cut(0, v);
  EXPECT_TRUE(t.inner().check_valid());
  for (Vertex v = 1; v < n; ++v) EXPECT_EQ(t.connected(0, v), v % 2 == 0);
  for (Vertex v = 1; v < n; v += 2) t.link(0, v, 2);
  for (Vertex v = 1; v < n; ++v) EXPECT_TRUE(t.connected(0, v));
}

TEST(Ternarizer, PathQueriesThroughChains) {
  constexpr size_t n = 50;
  TernTopology t(n);
  RefForest ref(n);
  auto edges = gen::pref_attach(n, 3);
  for (const Edge& e : edges) {
    Weight w = 1 + (e.u + e.v) % 9;
    t.link(e.u, e.v, w);
    ref.link(e.u, e.v, w);
  }
  util::SplitMix64 rng(5);
  for (int i = 0; i < 200; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << u << "," << v;
    ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << u << "," << v;
  }
}

TEST(Ternarizer, SubtreeSums) {
  constexpr size_t n = 60;
  TernTopology t(n);
  RefForest ref(n);
  auto edges = gen::kary(n, 8);
  for (const Edge& e : edges) {
    t.link(e.u, e.v);
    ref.link(e.u, e.v);
  }
  for (Vertex v = 0; v < n; ++v) {
    t.set_vertex_weight(v, v + 1);
    ref.set_vertex_weight(v, v + 1);
  }
  for (const Edge& e : edges) {
    ASSERT_EQ(t.subtree_sum(e.v, e.u), ref.subtree_sum(e.v, e.u));
    ASSERT_EQ(t.subtree_sum(e.u, e.v), ref.subtree_sum(e.u, e.v));
  }
}

TEST(Ternarizer, RandomizedDifferential) {
  constexpr size_t n = 40;
  TernTopology t(n);
  RefForest ref(n);
  util::SplitMix64 rng(99);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (int step = 0; step < 1500; ++step) {
    Vertex u = rng.next(4) == 0 ? 0 : static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    int action = static_cast<int>(rng.next(5));
    if (action <= 1) {
      if (!ref.connected(u, v)) {
        Weight w = 1 + static_cast<Weight>(rng.next(20));
        t.link(u, v, w);
        ref.link(u, v, w);
        edges.push_back({u, v});
      }
    } else if (action == 2 && !edges.empty()) {
      size_t idx = rng.next(edges.size());
      auto [a, b] = edges[idx];
      t.cut(a, b);
      ref.cut(a, b);
      edges[idx] = edges.back();
      edges.pop_back();
    } else if (action == 3) {
      ASSERT_EQ(t.connected(u, v), ref.connected(u, v)) << "step " << step;
    } else if (ref.connected(u, v)) {
      ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "step " << step;
    }
    if (step % 300 == 0) ASSERT_TRUE(t.inner().check_valid());
  }
}

TEST(Ternarizer, PrefAttachBuildShuffledDestroy) {
  constexpr size_t n = 200;
  TernTopology t(n);
  auto edges = gen::pref_attach(n, 7);
  for (const Edge& e : edges) t.link(e.u, e.v);
  EXPECT_TRUE(t.connected(0, n - 1));
  EXPECT_GT(t.memory_bytes(), 0u);
  util::shuffle(edges, 8);
  for (const Edge& e : edges) t.cut(e.u, e.v);
  EXPECT_FALSE(t.connected(0, 1));
}

TEST(Ternarizer, RandomUnboundedPathSumMatchesRef) {
  constexpr size_t n = 150;
  TernTopology t(n);
  RefForest ref(n);
  auto edges = gen::random_unbounded(n, 9);
  for (const Edge& e : edges) {
    Weight w = 1 + (e.u % 5);
    t.link(e.u, e.v, w);
    ref.link(e.u, e.v, w);
  }
  util::SplitMix64 rng(10);
  for (int i = 0; i < 100; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v));
  }
  for (const Edge& e : edges) t.cut(e.u, e.v);
  EXPECT_FALSE(t.connected(0, 1));
}

}  // namespace
}  // namespace ufo::seq
