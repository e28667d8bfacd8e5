// Differential + invariant tests for the sequential topology tree.
// Inputs are kept at max degree 3 (the structure's requirement); arbitrary
// degree goes through the Ternarizer, tested separately.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "seq/topology_tree.h"
#include "util/random.h"

namespace ufo::seq {
namespace {

TEST(TopologyTree, BasicLinkCutConnectivity) {
  TopologyTree t(6);
  EXPECT_FALSE(t.connected(0, 1));
  t.link(0, 1);
  EXPECT_TRUE(t.check_valid());
  t.link(1, 2);
  t.link(4, 5);
  EXPECT_TRUE(t.connected(0, 2));
  EXPECT_FALSE(t.connected(2, 4));
  EXPECT_TRUE(t.check_valid());
  t.cut(0, 1);
  EXPECT_FALSE(t.connected(0, 2));
  EXPECT_TRUE(t.connected(1, 2));
  EXPECT_TRUE(t.check_valid());
}

TEST(TopologyTree, PathQueriesOnWeightedPath) {
  constexpr size_t n = 64;
  TopologyTree t(n);
  for (Vertex v = 1; v < n; ++v) t.link(v - 1, v, static_cast<Weight>(v));
  ASSERT_TRUE(t.check_valid());
  for (Vertex k = 1; k < n; k += 7) {
    EXPECT_EQ(t.path_sum(0, k), static_cast<Weight>(k) * (k + 1) / 2);
    EXPECT_EQ(t.path_max(0, k), static_cast<Weight>(k));
    EXPECT_EQ(t.path_length(0, k), static_cast<int64_t>(k));
  }
  EXPECT_EQ(t.path_sum(5, 10), 6 + 7 + 8 + 9 + 10);
}

TEST(TopologyTree, HeightIsLogarithmicOnPath) {
  constexpr size_t n = 4096;
  TopologyTree t(n);
  for (Vertex v = 1; v < n; ++v) t.link(v - 1, v);
  // Theorem 3.1: height <= log_{6/5} n (plus slack for incremental builds).
  double bound = std::log(static_cast<double>(n)) / std::log(6.0 / 5.0);
  EXPECT_LE(t.height(0), static_cast<size_t>(2 * bound));
}

TEST(TopologyTree, SubtreeQueries) {
  // Balanced binary tree rooted at 0.
  constexpr size_t n = 31;
  TopologyTree t(n);
  RefForest ref(n);
  for (Vertex v = 1; v < n; ++v) {
    t.link((v - 1) / 2, v);
    ref.link((v - 1) / 2, v);
  }
  for (Vertex v = 0; v < n; ++v) {
    Weight w = static_cast<Weight>(v * v + 1);
    t.set_vertex_weight(v, w);
    ref.set_vertex_weight(v, w);
  }
  ASSERT_TRUE(t.check_valid());
  for (Vertex v = 1; v < n; ++v) {
    Vertex p = (v - 1) / 2;
    EXPECT_EQ(t.subtree_sum(v, p), ref.subtree_sum(v, p)) << v;
    EXPECT_EQ(t.subtree_size(v, p), ref.subtree_size(v, p)) << v;
    EXPECT_EQ(t.subtree_sum(p, v), ref.subtree_sum(p, v)) << v;
  }
}

TEST(TopologyTree, LcaMatchesReference) {
  constexpr size_t n = 63;
  TopologyTree t(n);
  RefForest ref(n);
  for (Vertex v = 1; v < n; ++v) {
    t.link((v - 1) / 2, v);
    ref.link((v - 1) / 2, v);
  }
  util::SplitMix64 rng(3);
  for (int i = 0; i < 300; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    Vertex r = static_cast<Vertex>(rng.next(n));
    EXPECT_EQ(t.lca(u, v, r), ref.lca(u, v, r))
        << u << " " << v << " root " << r;
  }
}

TEST(TopologyTree, DiameterOnSyntheticShapes) {
  {
    TopologyTree t(100);
    for (Vertex v = 1; v < 100; ++v) t.link(v - 1, v);
    EXPECT_EQ(t.component_diameter(50), 99);
  }
  {
    // Max-degree-3 star-of-paths: diameter via RefForest.
    auto edges = gen::random_degree3(200, 11);
    TopologyTree t(200);
    RefForest ref(200);
    for (const Edge& e : edges) {
      t.link(e.u, e.v);
      ref.link(e.u, e.v);
    }
    EXPECT_EQ(t.component_diameter(0),
              static_cast<int64_t>(ref.component_diameter(0)));
  }
}

// A tree of odd diameter has two adjacent centers. Like RefForest and the
// UFO backends, the topology tree returns the smaller id, whatever shape its
// contraction took.
TEST(TopologyTree, CenterTieGoesToSmallerId) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const size_t n = 200 + 7 * seed;
    EdgeList edges = gen::random_degree3(n, seed);
    util::shuffle(edges, seed + 100);
    TopologyTree t(n);
    RefForest ref(n);
    for (const Edge& e : edges) {
      t.link(e.u, e.v, e.w);
      ref.link(e.u, e.v, e.w);
    }
    for (int round = 0; round < 3; ++round) {
      for (Vertex u = 0; u < n; u += 61)
        ASSERT_EQ(t.component_center(u), ref.component_center(u))
            << "n " << n << " seed " << seed << " round " << round;
      // Split off a few subtrees and check the pieces.
      for (int i = 0; i < 3; ++i) {
        t.cut(edges.back().u, edges.back().v);
        ref.cut(edges.back().u, edges.back().v);
        edges.pop_back();
      }
    }
  }
}

TEST(TopologyTree, CenterAndMedianAreOptimal) {
  auto edges = gen::random_degree3(120, 7);
  TopologyTree t(120);
  RefForest ref(120);
  for (const Edge& e : edges) {
    t.link(e.u, e.v);
    ref.link(e.u, e.v);
  }
  // Any optimal vertex is acceptable; compare objective values.
  Vertex c = t.component_center(5);
  Vertex rc = ref.component_center(5);
  auto ecc = [&](Vertex x) {
    int64_t best = 0;
    for (Vertex y : ref.component(x))
      best = std::max<int64_t>(best, ref.path_length(x, y));
    return best;
  };
  EXPECT_EQ(ecc(c), ecc(rc)) << "center " << c << " vs " << rc;

  for (Vertex v = 0; v < 120; ++v) ref.set_vertex_weight(v, (v % 5) + 1);
  for (Vertex v = 0; v < 120; ++v) t.set_vertex_weight(v, (v % 5) + 1);
  Vertex m = t.component_median(5);
  Vertex rm = ref.component_median(5);
  auto cost = [&](Vertex x) {
    int64_t total = 0;
    for (Vertex y : ref.component(x))
      total += ref.vertex_weight(y) * ref.path_length(x, y);
    return total;
  };
  EXPECT_EQ(cost(m), cost(rm)) << "median " << m << " vs " << rm;
}

TEST(TopologyTree, NearestMarked) {
  constexpr size_t n = 40;
  TopologyTree t(n);
  RefForest ref(n);
  for (Vertex v = 1; v < n; ++v) {
    t.link(v - 1, v);
    ref.link(v - 1, v);
  }
  EXPECT_EQ(t.nearest_marked_distance(10), -1);
  for (Vertex m : {3u, 22u, 39u}) {
    t.set_mark(m, true);
    ref.set_mark(m, true);
  }
  for (Vertex v = 0; v < n; ++v)
    EXPECT_EQ(t.nearest_marked_distance(v), ref.nearest_marked_distance(v))
        << v;
  t.set_mark(22, false);
  ref.set_mark(22, false);
  for (Vertex v = 0; v < n; ++v)
    EXPECT_EQ(t.nearest_marked_distance(v), ref.nearest_marked_distance(v));
}

TEST(TopologyTree, RandomizedDifferential) {
  constexpr size_t n = 48;
  constexpr int kSteps = 2500;
  TopologyTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(31337);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (int step = 0; step < kSteps; ++step) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    int action = static_cast<int>(rng.next(6));
    if (action <= 1) {
      if (ref.degree(u) < 3 && ref.degree(v) < 3 && !ref.connected(u, v)) {
        Weight w = 1 + static_cast<Weight>(rng.next(50));
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
    } else if (action == 4 && ref.connected(u, v)) {
      ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "step " << step;
      ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << "step " << step;
      ASSERT_EQ(t.path_length(u, v),
                static_cast<int64_t>(ref.path_length(u, v)))
          << "step " << step;
    } else if (action == 5 && !edges.empty()) {
      auto [p, c] = edges[rng.next(edges.size())];
      ASSERT_EQ(t.subtree_sum(c, p), ref.subtree_sum(c, p)) << "step " << step;
      ASSERT_EQ(t.subtree_size(c, p), ref.subtree_size(c, p));
    }
    if (step % 250 == 0) ASSERT_TRUE(t.check_valid()) << "step " << step;
  }
  ASSERT_TRUE(t.check_valid());
}

TEST(TopologyTree, BuildAndDestroyDegree3Inputs) {
  for (uint64_t seed : {1ull, 2ull}) {
    auto edges = gen::random_degree3(400, seed);
    TopologyTree t(400);
    util::shuffle(edges, seed + 10);
    for (const Edge& e : edges) t.link(e.u, e.v, e.w);
    EXPECT_TRUE(t.check_valid());
    util::shuffle(edges, seed + 20);
    for (const Edge& e : edges) t.cut(e.u, e.v);
    EXPECT_TRUE(t.check_valid());
    for (Vertex v = 1; v < 400; ++v) EXPECT_FALSE(t.connected(0, v));
  }
}

}  // namespace
}  // namespace ufo::seq
