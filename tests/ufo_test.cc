// Differential + invariant tests for the sequential UFO tree — the paper's
// core contribution. Unlike the topology tree these run on unbounded-degree
// inputs (stars, dandelions, preferential attachment) with no ternarization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "obs/metrics.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::seq {
namespace {

TEST(UfoTree, BasicLinkCutConnectivity) {
  UfoTree t(6);
  EXPECT_FALSE(t.connected(0, 1));
  t.link(0, 1);
  EXPECT_TRUE(t.check_valid());
  t.link(1, 2);
  t.link(4, 5);
  EXPECT_TRUE(t.connected(0, 2));
  EXPECT_FALSE(t.connected(2, 4));
  t.cut(0, 1);
  EXPECT_FALSE(t.connected(0, 2));
  EXPECT_TRUE(t.connected(1, 2));
  EXPECT_TRUE(t.check_valid());
}

TEST(UfoTree, StarBuildAndQueries) {
  constexpr size_t n = 200;
  UfoTree t(n);
  for (Vertex v = 1; v < n; ++v) t.link(0, v, static_cast<Weight>(v));
  ASSERT_TRUE(t.check_valid());
  EXPECT_TRUE(t.connected(7, 133));
  // Theorem 4.2: height <= ceil(D/2) + O(1); star has D = 2.
  EXPECT_LE(t.height(0), 3u);
  EXPECT_LE(t.height(5), 3u);
  EXPECT_EQ(t.component_diameter(0), 2);
  EXPECT_EQ(t.path_sum(3, 9), 3 + 9);
  EXPECT_EQ(t.path_max(3, 9), 9);
  EXPECT_EQ(t.path_length(3, 9), 2);
  EXPECT_EQ(t.path_sum(0, 9), 9);
  // Subtree of a leaf w.r.t. hub: just itself; hub w.r.t. leaf: the rest.
  EXPECT_EQ(t.subtree_size(9, 0), 1u);
  EXPECT_EQ(t.subtree_size(0, 9), n - 1);
}

TEST(UfoTree, StarCutsAndRelinks) {
  constexpr size_t n = 100;
  UfoTree t(n);
  for (Vertex v = 1; v < n; ++v) t.link(0, v);
  for (Vertex v = 1; v < n; v += 2) t.cut(0, v);
  ASSERT_TRUE(t.check_valid());
  for (Vertex v = 1; v < n; ++v)
    EXPECT_EQ(t.connected(0, v), v % 2 == 0) << v;
  // Relink the odd leaves onto vertex 2 — a second hub emerges.
  for (Vertex v = 1; v < n; v += 2) t.link(2, v);
  ASSERT_TRUE(t.check_valid());
  EXPECT_TRUE(t.connected(1, 3));
  EXPECT_EQ(t.path_length(1, 5), 2);   // 1-2-5
  EXPECT_EQ(t.path_length(1, 4), 3);   // 1-2-0-4
}

TEST(UfoTree, PathQueriesOnWeightedPath) {
  constexpr size_t n = 64;
  UfoTree t(n);
  for (Vertex v = 1; v < n; ++v) t.link(v - 1, v, static_cast<Weight>(v));
  ASSERT_TRUE(t.check_valid());
  for (Vertex k = 1; k < n; k += 5) {
    EXPECT_EQ(t.path_sum(0, k), static_cast<Weight>(k) * (k + 1) / 2);
    EXPECT_EQ(t.path_max(0, k), static_cast<Weight>(k));
    EXPECT_EQ(t.path_length(0, k), static_cast<int64_t>(k));
  }
}

TEST(UfoTree, HeightBounds) {
  {  // log bound on a path
    constexpr size_t n = 4096;
    UfoTree t(n);
    for (Vertex v = 1; v < n; ++v) t.link(v - 1, v);
    double bound = std::log(static_cast<double>(n)) / std::log(6.0 / 5.0);
    EXPECT_LE(t.height(0), static_cast<size_t>(2 * bound));
  }
  {  // diameter bound on a 64-ary tree (D = 2 * log_64 n)
    constexpr size_t n = 4161;  // 1 + 64 + 64^2
    UfoTree t(n);
    auto edges = gen::kary(n, 64);
    for (const Edge& e : edges) t.link(e.u, e.v);
    // D = 4 here; height should be small regardless of n.
    EXPECT_LE(t.height(0), 8u);
  }
}

TEST(UfoTree, SubtreeQueriesKary) {
  constexpr size_t n = 85;  // 1 + 4 + 16 + 64
  UfoTree t(n);
  RefForest ref(n);
  for (Vertex v = 1; v < n; ++v) {
    t.link((v - 1) / 4, v);
    ref.link((v - 1) / 4, v);
  }
  for (Vertex v = 0; v < n; ++v) {
    Weight w = static_cast<Weight>(3 * v + 1);
    t.set_vertex_weight(v, w);
    ref.set_vertex_weight(v, w);
  }
  ASSERT_TRUE(t.check_valid());
  for (Vertex v = 1; v < n; ++v) {
    Vertex p = (v - 1) / 4;
    EXPECT_EQ(t.subtree_sum(v, p), ref.subtree_sum(v, p)) << v;
    EXPECT_EQ(t.subtree_size(v, p), ref.subtree_size(v, p)) << v;
    EXPECT_EQ(t.subtree_sum(p, v), ref.subtree_sum(p, v)) << v;
  }
}

TEST(UfoTree, LcaMatchesReference) {
  for (uint64_t seed : {5ull, 6ull}) {
    constexpr size_t n = 80;
    auto edges = gen::random_unbounded(n, seed);
    UfoTree t(n);
    RefForest ref(n);
    for (const Edge& e : edges) {
      t.link(e.u, e.v);
      ref.link(e.u, e.v);
    }
    util::SplitMix64 rng(seed);
    for (int i = 0; i < 200; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      Vertex r = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.lca(u, v, r), ref.lca(u, v, r))
          << u << " " << v << " root " << r << " seed " << seed;
    }
  }
}

TEST(UfoTree, NonLocalQueriesOnUnboundedDegree) {
  for (uint64_t seed : {9ull, 10ull}) {
    constexpr size_t n = 90;
    auto edges = gen::pref_attach(n, seed);
    UfoTree t(n);
    RefForest ref(n);
    for (const Edge& e : edges) {
      t.link(e.u, e.v);
      ref.link(e.u, e.v);
    }
    EXPECT_EQ(t.component_diameter(0),
              static_cast<int64_t>(ref.component_diameter(0)));
    auto ecc = [&](Vertex x) {
      int64_t best = 0;
      for (Vertex y : ref.component(x))
        best = std::max<int64_t>(best, ref.path_length(x, y));
      return best;
    };
    EXPECT_EQ(ecc(t.component_center(3)), ecc(ref.component_center(3)));
    for (Vertex v = 0; v < n; ++v) {
      t.set_vertex_weight(v, (v % 7) + 1);
      ref.set_vertex_weight(v, (v % 7) + 1);
    }
    auto cost = [&](Vertex x) {
      int64_t total = 0;
      for (Vertex y : ref.component(x))
        total += ref.vertex_weight(y) * ref.path_length(x, y);
      return total;
    };
    EXPECT_EQ(cost(t.component_median(3)), cost(ref.component_median(3)));
  }
}

TEST(UfoTree, NearestMarkedOnStarAndPath) {
  constexpr size_t n = 60;
  UfoTree t(n);
  RefForest ref(n);
  // Dandelion: hub + leaves + tail path.
  auto edges = gen::dandelion(n);
  for (const Edge& e : edges) {
    t.link(e.u, e.v);
    ref.link(e.u, e.v);
  }
  EXPECT_EQ(t.nearest_marked_distance(5), -1);
  for (Vertex m : {7u, 40u, 59u}) {
    t.set_mark(m, true);
    ref.set_mark(m, true);
  }
  for (Vertex v = 0; v < n; ++v)
    ASSERT_EQ(t.nearest_marked_distance(v), ref.nearest_marked_distance(v))
        << v;
  t.set_mark(40, false);
  ref.set_mark(40, false);
  for (Vertex v = 0; v < n; ++v)
    ASSERT_EQ(t.nearest_marked_distance(v), ref.nearest_marked_distance(v));
}

TEST(UfoTree, RandomizedDifferentialUnboundedDegree) {
  constexpr size_t n = 48;
  constexpr int kSteps = 2500;
  UfoTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(4242);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (int step = 0; step < kSteps; ++step) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    int action = static_cast<int>(rng.next(6));
    if (action <= 1) {
      if (!ref.connected(u, v)) {
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
      ASSERT_EQ(t.subtree_size(c, p), ref.subtree_size(c, p))
          << "step " << step;
    }
    if (step % 250 == 0) ASSERT_TRUE(t.check_valid()) << "step " << step;
  }
  ASSERT_TRUE(t.check_valid());
}

TEST(UfoTree, RandomizedDifferentialSkewedDegrees) {
  // Bias link endpoints toward vertex 0 to exercise high-degree merges.
  constexpr size_t n = 40;
  constexpr int kSteps = 2000;
  UfoTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(777);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (int step = 0; step < kSteps; ++step) {
    Vertex u = rng.next(3) == 0 ? 0 : static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    int action = static_cast<int>(rng.next(5));
    if (action <= 1) {
      if (!ref.connected(u, v)) {
        t.link(u, v);
        ref.link(u, v);
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
      ASSERT_EQ(t.path_length(u, v),
                static_cast<int64_t>(ref.path_length(u, v)))
          << "step " << step;
    }
    if (step % 200 == 0) {
      ASSERT_TRUE(t.check_valid()) << "step " << step;
    }
    ASSERT_TRUE(t.check_aggregates()) << "step " << step;
  }
}

TEST(UfoTree, BuildAndDestroyAllSyntheticInputs) {
  for (const auto& input : gen::synthetic_suite(300, 3)) {
    UfoTree t(input.n);
    auto edges = input.edges;
    util::shuffle(edges, 31);
    for (const Edge& e : edges) t.link(e.u, e.v, e.w);
    EXPECT_TRUE(t.check_valid()) << input.name;
    util::shuffle(edges, 32);
    for (const Edge& e : edges) t.cut(e.u, e.v);
    EXPECT_TRUE(t.check_valid()) << input.name;
    for (Vertex v = 1; v < input.n; ++v)
      ASSERT_FALSE(t.connected(0, v)) << input.name;
  }
}

// An update recomputes each cluster it dirtied once, in one bottom-up flush,
// so single updates average O(height) recomputes (2 x height + O(1) is the
// ROADMAP item 4 target). Reads the core.recompute counter, so it runs only
// in an instrumented build.
TEST(UfoTree, RecomputesPerUpdateWithinTwiceHeight) {
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  constexpr size_t n = size_t{1} << 12;
  EdgeList ins = gen::random_unbounded(n, 21);
  EdgeList del = ins;
  util::shuffle(ins, 22);
  util::shuffle(del, 23);
  UfoTree t(n);
  const obs::Counter& recomputes =
      obs::MetricsRegistry::instance().counter("core.recompute");
  const int64_t before = recomputes.total();
  for (const Edge& e : ins) t.link(e.u, e.v, e.w);
  size_t height = 0;
  for (Vertex v = 0; v < n; ++v) height = std::max(height, t.height(v));
  for (const Edge& e : del) t.cut(e.u, e.v);
  const double per_update =
      static_cast<double>(recomputes.total() - before) / (2.0 * ins.size());
  // Every update recomputes at least its two endpoint leaves.
  EXPECT_GE(per_update, 2.0);
  EXPECT_LE(per_update, 2.0 * static_cast<double>(height) + 4)
      << "height " << height;
#else
  GTEST_SKIP() << "needs -DUFO_OBSERVABILITY=ON (reads core.recompute)";
#endif
}

TEST(UfoTree, MemoryReported) {
  UfoTree t(500);
  size_t before = t.memory_bytes();
  for (Vertex v = 1; v < 500; ++v) t.link(0, v);
  EXPECT_GT(t.memory_bytes(), before);
}

}  // namespace
}  // namespace ufo::seq
