// Differential tests for the general-graph connectivity subsystem:
// GraphConnectivity over both UFO backends (seq::UfoTree, par::UfoTree)
// against a brute-force BFS oracle over random edge-insert/erase streams on
// grid, random (social), and star graphs, covering the single-edge path,
// both batch paths, and the replacement-edge search after tree-edge cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "connectivity/connectivity.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"
#include "util/union_find.h"

namespace ufo::conn_test {
namespace {

using conn::component_labels;
using conn::EdgeStore;
// The layer under test; the typed suites below are named after it, so the
// tests spell it Conn.
template <class Backend>
using Conn = conn::GraphConnectivity<Backend>;

// Brute-force oracle: adjacency sets + BFS for every query.
class BfsOracle {
 public:
  explicit BfsOracle(size_t n) : adj_(n) {}

  bool insert(Vertex u, Vertex v) {
    if (u == v || adj_[u].count(v)) return false;
    adj_[u].insert(v);
    adj_[v].insert(u);
    ++edges_;
    return true;
  }
  bool erase(Vertex u, Vertex v) {
    if (u == v || !adj_[u].count(v)) return false;
    adj_[u].erase(v);
    adj_[v].erase(u);
    --edges_;
    return true;
  }
  bool has_edge(Vertex u, Vertex v) const {
    return u != v && adj_[u].count(v) > 0;
  }
  size_t num_edges() const { return edges_; }

  std::vector<Vertex> bfs(Vertex s) const {
    std::vector<Vertex> seen{s};
    std::set<Vertex> vis{s};
    for (size_t h = 0; h < seen.size(); ++h)
      for (Vertex y : adj_[seen[h]])
        if (vis.insert(y).second) seen.push_back(y);
    return seen;
  }
  bool connected(Vertex u, Vertex v) const {
    if (u == v) return true;
    auto seen = bfs(u);
    return std::find(seen.begin(), seen.end(), v) != seen.end();
  }
  size_t component_size(Vertex v) const { return bfs(v).size(); }
  size_t num_components() const {
    std::vector<bool> vis(adj_.size(), false);
    size_t comps = 0;
    for (Vertex v = 0; v < adj_.size(); ++v) {
      if (vis[v]) continue;
      ++comps;
      for (Vertex x : bfs(v)) vis[x] = true;
    }
    return comps;
  }

 private:
  std::vector<std::set<Vertex>> adj_;
  size_t edges_ = 0;
};

template <class Backend>
class GraphConnectivity : public ::testing::Test {};
using Backends = ::testing::Types<seq::UfoTree, par::UfoTree>;
TYPED_TEST_SUITE(GraphConnectivity, Backends);

template <class Backend>
void expect_agrees(const Conn<Backend>& g, const BfsOracle& o,
                   util::SplitMix64& rng, size_t probes) {
  ASSERT_EQ(g.num_edges(), o.num_edges());
  ASSERT_EQ(g.num_components(), o.num_components());
  for (size_t p = 0; p < probes; ++p) {
    Vertex a = static_cast<Vertex>(rng.next(g.size()));
    Vertex b = static_cast<Vertex>(rng.next(g.size()));
    ASSERT_EQ(g.connected(a, b), o.connected(a, b)) << a << "-" << b;
  }
  Vertex c = static_cast<Vertex>(rng.next(g.size()));
  ASSERT_EQ(g.component_size(c), o.component_size(c)) << "comp of " << c;
}

TYPED_TEST(GraphConnectivity, CycleEdgesBecomeNonTree) {
  Conn<TypeParam> g(4);
  EXPECT_TRUE(g.insert(0, 1));
  EXPECT_TRUE(g.insert(1, 2));
  EXPECT_TRUE(g.insert(2, 0));  // closes a cycle: must not touch the forest
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_tree_edges(), 2u);
  EXPECT_EQ(g.num_components(), 2u);  // {0,1,2} and {3}
  EXPECT_FALSE(g.insert(0, 2));       // duplicate (either orientation)
  EXPECT_FALSE(g.insert(1, 1));       // self-loop
  EXPECT_TRUE(g.check_valid());
}

TYPED_TEST(GraphConnectivity, ReplacementEdgeSearchAfterCut) {
  // Cycle 0-1-2-3-0: cutting any tree edge must promote the non-tree edge.
  Conn<TypeParam> g(4);
  g.insert(0, 1);
  g.insert(1, 2);
  g.insert(2, 3);
  g.insert(3, 0);  // non-tree
  ASSERT_EQ(g.num_tree_edges(), 3u);
  ASSERT_TRUE(g.erase(1, 2));  // tree edge: replacement must kick in
  EXPECT_TRUE(g.connected(1, 2));
  EXPECT_EQ(g.num_components(), 1u);
  EXPECT_EQ(g.num_tree_edges(), 3u);  // {3,0} promoted
  ASSERT_TRUE(g.erase(3, 0));         // now a tree edge; no replacement left
  EXPECT_FALSE(g.connected(1, 2));
  EXPECT_EQ(g.num_components(), 2u);
  EXPECT_TRUE(g.check_valid());
}

TYPED_TEST(GraphConnectivity, EraseReturnsFalseForAbsentEdges) {
  Conn<TypeParam> g(8);
  g.insert(0, 1);
  EXPECT_FALSE(g.erase(0, 2));
  EXPECT_FALSE(g.erase(5, 5));
  EXPECT_TRUE(g.erase(1, 0));  // either orientation
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_components(), 8u);
}

TYPED_TEST(GraphConnectivity, WeightsSurvivePromotion) {
  Conn<TypeParam> g(3, core::Aggregates::kAll);  // path_sum needs the full tier
  g.insert(0, 1, 5);
  g.insert(1, 2, 7);
  g.insert(2, 0, 11);  // non-tree, weight 11
  g.erase(0, 1);       // promotes {2,0}
  EXPECT_TRUE(g.connected(0, 1));
  // Path 0-2-1 carries the promoted weight.
  EXPECT_EQ(g.forest().path_sum(0, 1), 11 + 7);
}

// A batch that names one edge twice keeps the first occurrence's weight
// (batch_insert's documented rule), whichever orientation comes later.
TYPED_TEST(GraphConnectivity, BatchInsertKeepsFirstDuplicateWeight) {
  Conn<TypeParam> g(2, core::Aggregates::kAll);
  ASSERT_EQ(g.batch_insert({{0, 1, 5}, {1, 0, 9}}), conn::BatchStatus::kOk);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.forest().path_sum(0, 1), 5);
}

// Mixed single-edge insert/erase/query churn against the oracle. Three
// graph families x >= 10k operations total (acceptance criterion).
struct Family {
  const char* name;
  size_t n;
  EdgeList pool;
};

std::vector<Family> families() {
  std::vector<Family> fams;
  fams.push_back({"grid", 12 * 12, gen::grid_graph(12, 12)});
  fams.push_back({"social", 150, gen::social_graph(150, 4, 9)});
  fams.push_back({"star", 129, gen::star(129)});
  return fams;
}

TYPED_TEST(GraphConnectivity, SingleOpChurnMatchesOracle) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    Conn<TypeParam> g(fam.n);
    BfsOracle oracle(fam.n);
    util::SplitMix64 rng(1234);
    size_t ops = 4000;
    for (size_t i = 0; i < ops; ++i) {
      const Edge& e = fam.pool[rng.next(fam.pool.size())];
      // 60% inserts early, shifting toward erases once edges accumulate.
      bool do_insert = rng.next(100) < (g.num_edges() < fam.pool.size() / 2
                                            ? 70u
                                            : 40u);
      if (do_insert) {
        ASSERT_EQ(g.insert(e.u, e.v), oracle.insert(e.u, e.v));
      } else {
        ASSERT_EQ(g.erase(e.u, e.v), oracle.erase(e.u, e.v));
      }
      if (i % 500 == 0) expect_agrees(g, oracle, rng, 20);
    }
    expect_agrees(g, oracle, rng, 100);
    EXPECT_TRUE(g.check_valid());
  }
}

TYPED_TEST(GraphConnectivity, BatchPathsMatchOracle) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    Conn<TypeParam> g(fam.n);
    BfsOracle oracle(fam.n);
    util::SplitMix64 rng(77);
    EdgeList pool = fam.pool;
    util::shuffle(pool, 5);
    // Waves of batched inserts (with deliberate duplicates), then batched
    // erases, cross-checked after every wave.
    for (size_t wave = 0, at = 0; wave < 8 && at < pool.size(); ++wave) {
      size_t k = 1 + rng.next(96);
      EdgeList batch;
      for (size_t j = 0; j < k && at < pool.size(); ++j, ++at)
        batch.push_back(pool[at]);
      if (!batch.empty() && rng.next(2))
        batch.push_back(batch.front());  // duplicate within batch
      g.batch_insert(batch);
      for (const Edge& e : batch) oracle.insert(e.u, e.v);
      expect_agrees(g, oracle, rng, 25);
    }
    ASSERT_TRUE(g.check_valid());
    // Batched erases of random subsets (tree and non-tree mixed), plus some
    // absent edges that must be ignored.
    for (size_t wave = 0; wave < 6 && oracle.num_edges() > 0; ++wave) {
      EdgeList batch;
      size_t k = 1 + rng.next(64);
      for (size_t j = 0; j < k; ++j)
        batch.push_back(pool[rng.next(pool.size())]);
      batch.push_back({static_cast<Vertex>(rng.next(fam.n)),
                       static_cast<Vertex>(rng.next(fam.n))});  // maybe absent
      g.batch_erase(batch);
      for (const Edge& e : batch) oracle.erase(e.u, e.v);
      expect_agrees(g, oracle, rng, 25);
    }
    EXPECT_TRUE(g.check_valid());
  }
}

TYPED_TEST(GraphConnectivity, BatchCutShattersComponentCorrectly) {
  // A ladder: two rails plus rungs. Batch-cutting all rungs and one rail
  // edge exercises multi-piece shattering with replacements available only
  // through the rails.
  constexpr size_t kLen = 24;
  constexpr size_t n = 2 * kLen;
  Conn<TypeParam> g(n);
  BfsOracle oracle(n);
  EdgeList all;
  for (Vertex i = 0; i + 1 < kLen; ++i) {
    all.push_back({i, static_cast<Vertex>(i + 1)});              // top rail
    all.push_back({static_cast<Vertex>(kLen + i),
                   static_cast<Vertex>(kLen + i + 1)});          // bottom rail
  }
  for (Vertex i = 0; i < kLen; ++i)
    all.push_back({i, static_cast<Vertex>(kLen + i)});           // rungs
  g.batch_insert(all);
  for (const Edge& e : all) oracle.insert(e.u, e.v);
  ASSERT_EQ(g.num_components(), 1u);
  // Cut every other rung plus a mid-rail edge in one batch.
  EdgeList cuts;
  for (Vertex i = 0; i < kLen; i += 2)
    cuts.push_back({i, static_cast<Vertex>(kLen + i)});
  cuts.push_back({11, 12});
  g.batch_erase(cuts);
  for (const Edge& e : cuts) oracle.erase(e.u, e.v);
  util::SplitMix64 rng(3);
  expect_agrees(g, oracle, rng, 200);
  EXPECT_TRUE(g.check_valid());
}

TYPED_TEST(GraphConnectivity, LargeBatchInsertThenFullTeardown) {
  // Every edge of a grid in one batch (many cycles), then erase everything
  // in batches; ends with n isolated vertices.
  constexpr size_t kSide = 16;
  constexpr size_t n = kSide * kSide;
  EdgeList grid = gen::grid_graph(kSide, kSide);
  Conn<TypeParam> g(n);
  g.batch_insert(grid);
  EXPECT_EQ(g.num_edges(), grid.size());
  EXPECT_EQ(g.num_components(), 1u);
  EXPECT_EQ(g.num_tree_edges(), n - 1);
  ASSERT_TRUE(g.check_valid());
  util::shuffle(grid, 21);
  for (size_t at = 0; at < grid.size(); at += 100) {
    EdgeList batch(grid.begin() + at,
                   grid.begin() + std::min(grid.size(), at + 100));
    g.batch_erase(batch);
    ASSERT_TRUE(g.check_valid()) << "after erasing through " << at;
  }
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_components(), n);
}

TYPED_TEST(GraphConnectivity, ComponentSizeOnStar) {
  constexpr size_t n = 64;
  Conn<TypeParam> g(n);
  EdgeList star = gen::star(n);
  g.batch_insert(star);
  EXPECT_EQ(g.component_size(0), n);
  EXPECT_EQ(g.component_size(17), n);
  g.erase(0, 17);
  EXPECT_EQ(g.component_size(17), 1u);
  EXPECT_EQ(g.component_size(0), n - 1);
}

TYPED_TEST(GraphConnectivity, HasEdgeOutOfRangeIsFalse) {
  constexpr size_t n = 8;
  Conn<TypeParam> g(n);
  g.batch_insert(gen::path(n));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(n, 0));
  EXPECT_FALSE(g.has_edge(0, n));
  EXPECT_FALSE(g.has_edge(n + 5, n + 9));
  EXPECT_FALSE(g.has_edge(kNoVertex, 3));
}

// Out-of-range vertices are isolated: no vertex id >= n is connected to
// anything, itself included, and its component is empty. Leaf ids past n
// name internal clusters, so the forest alone would answer for them.
TYPED_TEST(GraphConnectivity, OutOfRangeVertexIsIsolated) {
  constexpr size_t n = 8;
  Conn<TypeParam> g(n);
  g.batch_insert(gen::path(n));
  ASSERT_TRUE(g.connected(0, n - 1));
  for (Vertex v = n; v < 14; ++v) {
    EXPECT_FALSE(g.connected(v, 0)) << v;
    EXPECT_FALSE(g.connected(0, v)) << v;
    EXPECT_EQ(g.component_size(v), 0u) << v;
  }
  EXPECT_FALSE(g.connected(20, 20));
  EXPECT_FALSE(g.connected(kNoVertex, kNoVertex));
  EXPECT_EQ(g.component_size(kNoVertex), 0u);
  EXPECT_EQ(g.component_size(3), n);
}

template <class Backend>
class Connectivity : public ::testing::Test {};
TYPED_TEST_SUITE(Connectivity, Backends);

// The layer's own footprint (everything but the spanning forest) per vertex
// after one bulk insert. Tree edges live only in the forest and an empty
// per-vertex set holds 16 slots, so each vertex pays for one small
// non-tree set plus its share of the weight map.
TYPED_TEST(Connectivity, LayerBytesPerVertex) {
  auto layer_bytes_per_vertex = [](size_t n, const EdgeList& edges) {
    Conn<TypeParam> g(n);
    g.batch_insert(edges);
    EXPECT_EQ(g.num_edges(), edges.size());
    return (g.memory_bytes() - g.forest().memory_bytes()) / n;
  };
  constexpr size_t kSide = 64, kSocial = size_t{1} << 14;
  EXPECT_LE(layer_bytes_per_vertex(kSide * kSide, gen::grid_graph(kSide, kSide)),
            400u);
  EXPECT_LE(layer_bytes_per_vertex(kSocial, gen::social_graph(kSocial, 4, 11)),
            512u);
}

// The spanning forest's own footprint per vertex after one bulk insert.
// The default size-only forest holds a hot record and a 16-byte size
// record per cluster plus adjacency and children slabs; it carries no cold
// records or rake indexes.
TYPED_TEST(Connectivity, ForestBytesPerVertex) {
  auto forest_bytes_per_vertex = [](size_t n, const EdgeList& edges) {
    Conn<TypeParam> g(n);
    g.batch_insert(edges);
    EXPECT_EQ(g.num_edges(), edges.size());
    return g.forest().memory_bytes() / n;
  };
  constexpr size_t kSide = 64, kSocial = size_t{1} << 14;
  EXPECT_LE(
      forest_bytes_per_vertex(kSide * kSide, gen::grid_graph(kSide, kSide)),
      850u);
  EXPECT_LE(
      forest_bytes_per_vertex(kSocial, gen::social_graph(kSocial, 4, 11)),
      450u);
}

// The two aggregate tiers run in lockstep through a churn of batch and
// single-edge updates and vertex annotations: components, connectivity and
// component sizes agree, and both forests pass the structural and
// aggregate audits throughout.
TYPED_TEST(Connectivity, AggregateTiersAgreeUnderChurn) {
  constexpr size_t n = 600;
  Conn<TypeParam> small(n);
  Conn<TypeParam> full(n, core::Aggregates::kAll);
  // check_aggregates recomputes in place; on a sound forest that rewrites
  // identical values.
  auto audit = [](const Conn<TypeParam>& g) {
    EXPECT_TRUE(g.check_valid());
    EXPECT_TRUE(g.forest().check_valid());
    EXPECT_TRUE(const_cast<TypeParam&>(g.forest()).check_aggregates());
  };
  auto agree = [&](util::SplitMix64& rng) {
    ASSERT_EQ(small.num_components(), full.num_components());
    ASSERT_EQ(small.num_edges(), full.num_edges());
    for (int i = 0; i < 200; ++i) {
      Vertex a = static_cast<Vertex>(rng.next(n));
      Vertex b = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(small.connected(a, b), full.connected(a, b)) << a << "-" << b;
      ASSERT_EQ(small.component_size(a), full.component_size(a)) << a;
    }
  };
  util::SplitMix64 rng(0x71E25);
  EdgeList pool = gen::social_graph(n, 3, 19);
  EdgeList star = gen::star(n);  // builds and shatters superunary clusters
  pool.insert(pool.end(), star.begin(), star.begin() + n / 3);
  for (int round = 0; round < 8; ++round) {
    EdgeList ins, del;
    for (const Edge& e : pool) {
      uint64_t r = rng.next(4);
      if (r == 0) ins.push_back(e);
      if (r == 1) del.push_back(e);
    }
    small.batch_insert(ins);
    full.batch_insert(ins);
    agree(rng);
    small.batch_erase(del);
    full.batch_erase(del);
    agree(rng);
    for (int i = 0; i < 20; ++i) {
      const Edge& e = pool[rng.next(pool.size())];
      Vertex v = static_cast<Vertex>(rng.next(n));
      if (rng.next(2)) {
        small.insert(e.u, e.v);
        full.insert(e.u, e.v);
      } else {
        small.erase(e.u, e.v);
        full.erase(e.u, e.v);
      }
      small.set_vertex_weight(v, static_cast<Weight>(i));
      full.set_vertex_weight(v, static_cast<Weight>(i));
      small.set_mark(v, i % 2 == 0);
      full.set_mark(v, i % 2 == 0);
    }
    agree(rng);
    audit(small);
    audit(full);
  }
}

// Every query beyond connectivity and sizes fails loudly on a size-only
// forest, in every build type, instead of reading records it never keeps.
TYPED_TEST(Connectivity, PathQueryOnSizeOnlyForestAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Conn<TypeParam> g(4);
  g.insert(0, 1, 5);
  g.insert(1, 2, 7);
  EXPECT_EQ(g.component_size(0), 3u);
  EXPECT_DEATH(g.forest().path_sum(0, 2), "path_sum needs .*Aggregates::kAll");
  EXPECT_DEATH(g.forest().component_diameter(0), "Aggregates::kAll");
}

TEST(UnionFindTest, BasicStagingBehavior) {
  util::UnionFind uf(6);
  EXPECT_EQ(uf.num_components(), 6u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // cycle-closing
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.component_size(2), 3u);
  EXPECT_EQ(uf.num_components(), 4u);
  uf.reset();
  EXPECT_EQ(uf.num_components(), 6u);
  EXPECT_FALSE(uf.same(0, 1));
}

TEST(EdgeStoreTest, InsertEraseContains) {
  EdgeStore s(8);
  EXPECT_TRUE(s.insert(1, 2));
  EXPECT_FALSE(s.insert(2, 1));  // same undirected edge
  EXPECT_TRUE(s.contains(2, 1));
  EXPECT_EQ(s.edges(), 1u);
  EXPECT_EQ(s.degree(1), 1u);
  EXPECT_TRUE(s.erase(1, 2));
  EXPECT_FALSE(s.erase(1, 2));
  EXPECT_EQ(s.edges(), 0u);
}

TEST(EdgeStoreTest, BatchReserveAndConcurrentInsert) {
  constexpr size_t n = 32;
  EdgeStore s(n);
  EdgeList batch = gen::star(n);  // all edges share vertex 0
  ASSERT_TRUE(s.try_reserve_batch(batch));
  par::parallel_for(0, batch.size(), [&](size_t i) {
    s.insert_concurrent(batch[i].u, batch[i].v);
  });
  EXPECT_EQ(s.edges(), n - 1);
  EXPECT_EQ(s.degree(0), n - 1);
  for (Vertex v = 1; v < n; ++v) EXPECT_TRUE(s.contains(0, v));
}

TEST(ComponentLabels, CanonicalSmallestId) {
  EdgeStore s(6);
  s.insert(4, 5);
  s.insert(1, 2);
  s.insert(2, 3);
  auto label = component_labels(s);
  EXPECT_EQ(label[0], 0u);
  EXPECT_EQ(label[1], 1u);
  EXPECT_EQ(label[2], 1u);
  EXPECT_EQ(label[3], 1u);
  EXPECT_EQ(label[4], 4u);
  EXPECT_EQ(label[5], 4u);
}

}  // namespace
}  // namespace ufo::conn_test
