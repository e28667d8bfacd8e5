// Differential tests for the general-graph connectivity subsystem:
// GraphConnectivity<seq::UfoTree> against a brute-force BFS oracle over
// random edge-insert/erase streams on grid, random (social), and star
// graphs, covering the single-edge path, both batch paths, and the
// replacement-edge search after tree-edge cuts.
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

namespace ufo::conn {
namespace {

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

using UfoConn = GraphConnectivity<seq::UfoTree>;

void expect_agrees(const UfoConn& g, const BfsOracle& o, util::SplitMix64& rng,
                   size_t probes) {
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

TEST(GraphConnectivity, CycleEdgesBecomeNonTree) {
  UfoConn g(4);
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

TEST(GraphConnectivity, ReplacementEdgeSearchAfterCut) {
  // Cycle 0-1-2-3-0: cutting any tree edge must promote the non-tree edge.
  UfoConn g(4);
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

TEST(GraphConnectivity, EraseReturnsFalseForAbsentEdges) {
  UfoConn g(8);
  g.insert(0, 1);
  EXPECT_FALSE(g.erase(0, 2));
  EXPECT_FALSE(g.erase(5, 5));
  EXPECT_TRUE(g.erase(1, 0));  // either orientation
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_components(), 8u);
}

TEST(GraphConnectivity, WeightsSurvivePromotion) {
  UfoConn g(3);
  g.insert(0, 1, 5);
  g.insert(1, 2, 7);
  g.insert(2, 0, 11);  // non-tree, weight 11
  g.erase(0, 1);       // promotes {2,0}
  EXPECT_TRUE(g.connected(0, 1));
  // Path 0-2-1 carries the promoted weight.
  EXPECT_EQ(g.forest().path_sum(0, 1), 11 + 7);
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

TEST(GraphConnectivity, SingleOpChurnMatchesOracle) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    UfoConn g(fam.n);
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

TEST(GraphConnectivity, BatchPathsMatchOracle) {
  for (const Family& fam : families()) {
    SCOPED_TRACE(fam.name);
    UfoConn g(fam.n);
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

TEST(GraphConnectivity, BatchCutShattersComponentCorrectly) {
  // A ladder: two rails plus rungs. Batch-cutting all rungs and one rail
  // edge exercises multi-piece shattering with replacements available only
  // through the rails.
  constexpr size_t kLen = 24;
  constexpr size_t n = 2 * kLen;
  UfoConn g(n);
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

TEST(GraphConnectivity, LargeBatchInsertThenFullTeardown) {
  // Every edge of a grid in one batch (many cycles), then erase everything
  // in batches; ends with n isolated vertices.
  constexpr size_t kSide = 16;
  constexpr size_t n = kSide * kSide;
  EdgeList grid = gen::grid_graph(kSide, kSide);
  UfoConn g(n);
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

TEST(GraphConnectivity, ComponentSizeOnStar) {
  constexpr size_t n = 64;
  UfoConn g(n);
  EdgeList star = gen::star(n);
  g.batch_insert(star);
  EXPECT_EQ(g.component_size(0), n);
  EXPECT_EQ(g.component_size(17), n);
  g.erase(0, 17);
  EXPECT_EQ(g.component_size(17), 1u);
  EXPECT_EQ(g.component_size(0), n - 1);
}

TEST(GraphConnectivity, HasEdgeOutOfRangeIsFalse) {
  constexpr size_t n = 8;
  UfoConn g(n);
  g.batch_insert(gen::path(n));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(n, 0));
  EXPECT_FALSE(g.has_edge(0, n));
  EXPECT_FALSE(g.has_edge(n + 5, n + 9));
  EXPECT_FALSE(g.has_edge(kNoVertex, 3));
}

template <class Backend>
class Connectivity : public ::testing::Test {};
using Backends = ::testing::Types<seq::UfoTree, par::UfoTree>;
TYPED_TEST_SUITE(Connectivity, Backends);

// The layer's own footprint (everything but the spanning forest) per vertex
// after one bulk insert. Tree edges live only in the forest and an empty
// per-vertex set holds 16 slots, so each vertex pays for one small
// non-tree set plus its share of the weight map.
TYPED_TEST(Connectivity, LayerBytesPerVertex) {
  auto layer_bytes_per_vertex = [](size_t n, const EdgeList& edges) {
    GraphConnectivity<TypeParam> g(n);
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
}  // namespace ufo::conn
