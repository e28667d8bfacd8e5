// Typed tests driving every dynamic-tree backend in the library directly
// through its own type. One generic suite, instantiated per backend,
// checks the common operation surface; capability-gated sections (via the
// core concepts) additionally verify path, subtree, batch, and non-local
// behaviour on the backends that support them — exactly the Table 1 matrix.
#include <gtest/gtest.h>

#include <vector>

#include "core/ufo.h"
#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "seq/ett_skiplist.h"
#include "seq/ett_splay.h"
#include "seq/ett_treap.h"
#include "util/random.h"

namespace ufo {
namespace {

uint64_t rnd(util::SplitMix64& g, uint64_t lo, uint64_t hi) {
  return lo + g.next(hi - lo + 1);
}

template <class Backend>
class CoreApiTest : public ::testing::Test {};

using Backends =
    ::testing::Types<par::UfoTree, seq::UfoTree,
                     seq::Ternarizer<seq::TopologyTree>, seq::LinkCutTree,
                     seq::SplayTopTree, seq::EttTreap, seq::EttSplay,
                     seq::EttSkipList, RefForest>;

class BackendNames {
 public:
  template <class T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, par::UfoTree>) return "ParUfo";
    if constexpr (std::is_same_v<T, seq::UfoTree>) return "Ufo";
    if constexpr (std::is_same_v<T, seq::Ternarizer<seq::TopologyTree>>)
      return "Topology";
    if constexpr (std::is_same_v<T, seq::LinkCutTree>) return "LinkCut";
    if constexpr (std::is_same_v<T, seq::SplayTopTree>) return "SplayTop";
    if constexpr (std::is_same_v<T, seq::EttTreap>) return "EttTreap";
    if constexpr (std::is_same_v<T, seq::EttSplay>) return "EttSplay";
    if constexpr (std::is_same_v<T, seq::EttSkipList>) return "EttSkip";
    if constexpr (std::is_same_v<T, RefForest>) return "RefForest";
    return "Unknown";
  }
};

TYPED_TEST_SUITE(CoreApiTest, Backends, BackendNames);

TYPED_TEST(CoreApiTest, SatisfiesDynamicTreeConcept) {
  static_assert(core::DynamicTree<TypeParam>);
  SUCCEED();
}

TYPED_TEST(CoreApiTest, EmptyForestIsDisconnected) {
  TypeParam f(8);
  EXPECT_EQ(f.size(), 8u);
  for (Vertex u = 0; u < 8; ++u)
    for (Vertex v = u + 1; v < 8; ++v) EXPECT_FALSE(f.connected(u, v));
}

TYPED_TEST(CoreApiTest, SelfConnectivity) {
  TypeParam f(4);
  for (Vertex v = 0; v < 4; ++v) EXPECT_TRUE(f.connected(v, v));
  f.link(0, 1);
  EXPECT_TRUE(f.connected(0, 0));
}

TYPED_TEST(CoreApiTest, LinkConnectsCutDisconnects) {
  TypeParam f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(3, 4);
  EXPECT_TRUE(f.connected(0, 2));
  EXPECT_TRUE(f.connected(3, 4));
  EXPECT_FALSE(f.connected(2, 3));
  f.cut(1, 2);
  EXPECT_FALSE(f.connected(0, 2));
  EXPECT_TRUE(f.connected(0, 1));
}

TYPED_TEST(CoreApiTest, StarBuildAndTeardown) {
  constexpr size_t n = 40;
  TypeParam f(n);
  for (Vertex v = 1; v < n; ++v) f.link(0, v);
  EXPECT_TRUE(f.connected(1, n - 1));
  for (Vertex v = 1; v < n; ++v) {
    f.cut(0, v);
    EXPECT_FALSE(f.connected(0, v));
  }
  // Rebuild after a full teardown must work (allocator reuse paths).
  for (Vertex v = 1; v < n; ++v) f.link(0, v);
  EXPECT_TRUE(f.connected(1, n - 1));
}

TYPED_TEST(CoreApiTest, PathSplitAndRejoin) {
  constexpr size_t n = 33;
  TypeParam f(n);
  for (Vertex v = 1; v < n; ++v) f.link(v - 1, v);
  f.cut(15, 16);
  EXPECT_TRUE(f.connected(0, 15));
  EXPECT_TRUE(f.connected(16, n - 1));
  EXPECT_FALSE(f.connected(15, 16));
  f.link(0, n - 1);  // rejoin the halves at their far ends
  EXPECT_TRUE(f.connected(15, 16));
}

TYPED_TEST(CoreApiTest, ConnectivityMatchesOracleUnderChurn) {
  constexpr size_t n = 48;
  TypeParam f(n);
  RefForest ref(n);
  util::SplitMix64 rng(99);
  std::vector<Edge> live;
  for (int step = 0; step < 1500; ++step) {
    int op = static_cast<int>(rnd(rng, 0, 9));
    if (op < 5) {
      Vertex u = static_cast<Vertex>(rnd(rng, 0, n - 1));
      Vertex v = static_cast<Vertex>(rnd(rng, 0, n - 1));
      if (u != v && !ref.connected(u, v)) {
        f.link(u, v);
        ref.link(u, v);
        live.push_back({u, v, 1});
      }
    } else if (op < 8 && !live.empty()) {
      size_t i = rnd(rng, 0, live.size() - 1);
      Edge e = live[i];
      live[i] = live.back();
      live.pop_back();
      f.cut(e.u, e.v);
      ref.cut(e.u, e.v);
    } else {
      Vertex u = static_cast<Vertex>(rnd(rng, 0, n - 1));
      Vertex v = static_cast<Vertex>(rnd(rng, 0, n - 1));
      ASSERT_EQ(f.connected(u, v), ref.connected(u, v))
          << "step " << step << " (" << u << "," << v << ")";
    }
  }
}

TYPED_TEST(CoreApiTest, PathAggregatesIfSupported) {
  if constexpr (core::PathQueryable<TypeParam>) {
    constexpr size_t n = 64;
    TypeParam f(n);
    RefForest ref(n);
    util::SplitMix64 rng(7);
    EdgeList edges = gen::random_degree3(n, 3);
    for (const Edge& e : edges) {
      Weight w = static_cast<Weight>(rnd(rng, 1, 50));
      f.link(e.u, e.v, w);
      ref.link(e.u, e.v, w);
    }
    for (int q = 0; q < 150; ++q) {
      Vertex u = static_cast<Vertex>(rnd(rng, 0, n - 1));
      Vertex v = static_cast<Vertex>(rnd(rng, 0, n - 1));
      if (u == v) continue;
      EXPECT_EQ(f.path_sum(u, v), ref.path_sum(u, v)) << u << "," << v;
      EXPECT_EQ(f.path_max(u, v), ref.path_max(u, v)) << u << "," << v;
    }
  } else {
    GTEST_SKIP() << "backend does not support path queries";
  }
}

TYPED_TEST(CoreApiTest, SubtreeAggregatesIfSupported) {
  if constexpr (core::SubtreeQueryable<TypeParam>) {
    constexpr size_t n = 60;
    TypeParam f(n);
    RefForest ref(n);
    util::SplitMix64 rng(21);
    EdgeList edges = gen::random_unbounded(n, 5);
    for (const Edge& e : edges) {
      f.link(e.u, e.v);
      ref.link(e.u, e.v);
    }
    for (Vertex v = 0; v < n; ++v) {
      Weight w = static_cast<Weight>(rnd(rng, 0, 30));
      f.set_vertex_weight(v, w);
      ref.set_vertex_weight(v, w);
    }
    for (const Edge& e : edges) {
      EXPECT_EQ(f.subtree_sum(e.u, e.v), ref.subtree_sum(e.u, e.v))
          << "(" << e.u << "," << e.v << ")";
      EXPECT_EQ(f.subtree_sum(e.v, e.u), ref.subtree_sum(e.v, e.u))
          << "(" << e.v << "," << e.u << ")";
    }
  } else {
    GTEST_SKIP() << "backend does not support subtree queries";
  }
}

TYPED_TEST(CoreApiTest, BatchUpdatesIfSupported) {
  if constexpr (core::BatchDynamic<TypeParam>) {
    constexpr size_t n = 80;
    TypeParam f(n);
    RefForest ref(n);
    EdgeList edges = gen::pref_attach(n, 17);
    // Insert in two batches, then delete in three.
    EdgeList b1(edges.begin(), edges.begin() + 40);
    EdgeList b2(edges.begin() + 40, edges.end());
    f.batch_link(b1);
    f.batch_link(b2);
    for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
    for (Vertex v = 1; v < n; ++v)
      EXPECT_TRUE(f.connected(0, v)) << "after batch insert, v=" << v;
    EdgeList d1(edges.begin(), edges.begin() + 25);
    EdgeList d2(edges.begin() + 25, edges.begin() + 55);
    EdgeList d3(edges.begin() + 55, edges.end());
    for (const EdgeList* d : {&d1, &d2, &d3}) {
      f.batch_cut(*d);
      for (const Edge& e : *d) ref.cut(e.u, e.v);
      util::SplitMix64 rng(4);
      for (int q = 0; q < 60; ++q) {
        Vertex u = static_cast<Vertex>(rnd(rng, 0, n - 1));
        Vertex v = static_cast<Vertex>(rnd(rng, 0, n - 1));
        ASSERT_EQ(f.connected(u, v), ref.connected(u, v));
      }
    }
  } else {
    GTEST_SKIP() << "backend is not batch-dynamic";
  }
}

TYPED_TEST(CoreApiTest, NonLocalQueriesIfSupported) {
  if constexpr (core::NonLocalQueryable<TypeParam>) {
    constexpr size_t n = 50;
    TypeParam f(n);
    RefForest ref(n);
    util::SplitMix64 rng(31);
    EdgeList edges = gen::random_unbounded(n, 9);
    for (const Edge& e : edges) {
      f.link(e.u, e.v);
      ref.link(e.u, e.v);
    }
    for (int q = 0; q < 80; ++q) {
      Vertex u = static_cast<Vertex>(rnd(rng, 0, n - 1));
      Vertex v = static_cast<Vertex>(rnd(rng, 0, n - 1));
      Vertex r = static_cast<Vertex>(rnd(rng, 0, n - 1));
      if (u == v || v == r || u == r) continue;
      EXPECT_EQ(f.lca(u, v, r), ref.lca(u, v, r))
          << "lca(" << u << "," << v << "|" << r << ")";
    }
    EXPECT_EQ(f.component_diameter(0),
              static_cast<int64_t>(ref.component_diameter(0)));
    // Marks: nearest marked distance agrees everywhere.
    for (Vertex m : {Vertex(3), Vertex(17), Vertex(42)}) {
      f.set_mark(m, true);
      ref.set_mark(m, true);
    }
    for (Vertex v = 0; v < n; ++v)
      EXPECT_EQ(f.nearest_marked_distance(v), ref.nearest_marked_distance(v))
          << "v=" << v;
  } else {
    GTEST_SKIP() << "backend does not support non-local queries";
  }
}

TYPED_TEST(CoreApiTest, ManySmallComponents) {
  constexpr size_t n = 60;
  TypeParam f(n);
  // 20 disjoint triangles-minus-an-edge (paths of 3).
  for (Vertex b = 0; b + 2 < n; b += 3) {
    f.link(b, b + 1);
    f.link(b + 1, b + 2);
  }
  for (Vertex b = 0; b + 2 < n; b += 3) {
    EXPECT_TRUE(f.connected(b, b + 2));
    if (b + 5 < n) EXPECT_FALSE(f.connected(b, b + 3));
  }
  // Chain the components into one tree, then verify global connectivity.
  for (Vertex b = 3; b + 2 < n; b += 3) f.link(b - 1, b);
  EXPECT_TRUE(f.connected(0, ((n / 3) * 3) - 1));
}

}  // namespace
}  // namespace ufo
