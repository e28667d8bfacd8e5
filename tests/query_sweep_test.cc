// Full-query-suite differential sweep over the Zipf diameter family — the
// exact workload of the Fig. 6 experiments — plus interleaved churn. Every
// query UFO trees claim in Table 1 is checked against the oracle at every
// alpha (high diameter at alpha = 0 down to near-star at alpha = 2+), so
// the correctness of the benchmarked configurations is itself under test.
// The sweep runs on seq::UfoTree (single links and cuts) and on
// par::UfoTree (batch_link / batch_cut, so the batch pipeline shapes the
// hierarchy). A star and a dandelion check every subtree and nearest-marked
// query through high-fanout hubs. The last suite pins the query
// preconditions: the empty path, and the named aborts on disconnected
// endpoints and non-edges.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "parallel/par_ufo_tree.h"
#include "recovery/snapshot.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::seq {
namespace {

struct AlphaCase {
  std::string name;
  double alpha;
};

std::vector<AlphaCase> alpha_cases() {
  std::vector<AlphaCase> cases;
  for (double a : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0})
    cases.push_back({"alpha" + std::to_string(static_cast<int>(a * 10)), a});
  return cases;
}

// Links (batched: one batch_link) the edges into t and ref.
template <class Tree>
void link_all(Tree& t, RefForest& ref, const EdgeList& edges, bool batched) {
  for (const Edge& e : edges) {
    if (!batched) t.link(e.u, e.v, e.w);
    ref.link(e.u, e.v, e.w);
  }
  if (batched) t.batch_link(edges);
}

// Every query against the oracle on one Zipf tree, before and after churn.
template <class Tree>
void zipf_sweep(const AlphaCase& ac, bool batched) {
  constexpr size_t n = 140;
  EdgeList edges = gen::zipf_tree(n, ac.alpha, 1717);
  Tree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(55);
  for (Edge& e : edges) e.w = static_cast<Weight>(1 + rng.next(40));
  link_all(t, ref, edges, batched);
  for (Vertex v = 0; v < n; ++v) {
    Weight w = static_cast<Weight>(1 + rng.next(9));
    t.set_vertex_weight(v, w);
    ref.set_vertex_weight(v, w);
  }
  for (Vertex m : {Vertex(2), Vertex(77), Vertex(131)}) {
    t.set_mark(m, true);
    ref.set_mark(m, true);
  }

  auto ecc = [&](Vertex x) {
    int64_t best = 0;
    for (Vertex y : ref.component(x))
      best = std::max<int64_t>(best, ref.path_length(x, y));
    return best;
  };
  auto median_cost = [&](Vertex x) {
    int64_t total = 0;
    for (Vertex y : ref.component(x))
      total += ref.vertex_weight(y) * ref.path_length(x, y);
    return total;
  };

  auto audit = [&](const char* stage) {
    ASSERT_TRUE(t.check_valid()) << ac.name << " " << stage;
    for (int q = 0; q < 60; ++q) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.connected(u, v), ref.connected(u, v)) << stage;
      if (u == v || !ref.connected(u, v)) continue;
      ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << stage;
      ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << stage;
      ASSERT_EQ(t.path_length(u, v),
                static_cast<int64_t>(ref.path_length(u, v)))
          << stage;
    }
    // Subtree + LCA against random live edges / triples.
    for (int q = 0; q < 25; ++q) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      if (ref.degree(u) == 0) continue;
      Vertex p = ref.component(u)[1 % ref.component(u).size()];
      if (!ref.has_edge(u, p)) continue;
      ASSERT_EQ(t.subtree_sum(u, p), ref.subtree_sum(u, p)) << stage;
      ASSERT_EQ(t.subtree_size(u, p), ref.subtree_size(u, p)) << stage;
    }
    for (int q = 0; q < 25; ++q) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      Vertex r = static_cast<Vertex>(rng.next(n));
      if (u == v || v == r || u == r) continue;
      if (!ref.connected(u, v) || !ref.connected(v, r)) continue;
      ASSERT_EQ(t.lca(u, v, r), ref.lca(u, v, r)) << stage;
    }
    // Non-local queries (tie-insensitive comparisons).
    Vertex probe = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(t.component_diameter(probe),
              static_cast<int64_t>(ref.component_diameter(probe)))
        << stage;
    ASSERT_EQ(ecc(t.component_center(probe)), ecc(ref.component_center(probe)))
        << stage;
    ASSERT_EQ(median_cost(t.component_median(probe)),
              median_cost(ref.component_median(probe)))
        << stage;
    for (int q = 0; q < 25; ++q) {
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.nearest_marked_distance(v), ref.nearest_marked_distance(v))
          << stage;
    }
  };

  audit("full tree");

  // Churn: cut a quarter of the edges (splitting the tree), re-audit,
  // relink, re-audit.
  EdgeList removed(edges.begin(), edges.begin() + edges.size() / 4);
  for (const Edge& e : removed) {
    if (!batched) t.cut(e.u, e.v);
    ref.cut(e.u, e.v);
  }
  if (batched) t.batch_cut(removed);
  audit("after cuts");
  for (Edge& e : removed) e.w = static_cast<Weight>(1 + rng.next(40));
  link_all(t, ref, removed, batched);
  audit("after relinks");
}

class UfoZipfQuerySweep : public ::testing::TestWithParam<AlphaCase> {};

TEST_P(UfoZipfQuerySweep, AllQueriesMatchOracleUnderChurn) {
  zipf_sweep<UfoTree>(GetParam(), /*batched=*/false);
}

INSTANTIATE_TEST_SUITE_P(Alphas, UfoZipfQuerySweep,
                         ::testing::ValuesIn(alpha_cases()),
                         [](const auto& info) { return info.param.name; });

class ParUfoZipfQuerySweep : public ::testing::TestWithParam<AlphaCase> {};

TEST_P(ParUfoZipfQuerySweep, AllQueriesMatchOracleUnderBatchChurn) {
  zipf_sweep<par::UfoTree>(GetParam(), /*batched=*/true);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ParUfoZipfQuerySweep,
                         ::testing::ValuesIn(alpha_cases()),
                         [](const auto& info) { return info.param.name; });

class TopologyZipfQuerySweep : public ::testing::TestWithParam<AlphaCase> {};

TEST_P(TopologyZipfQuerySweep, PathAndSubtreeMatchOracleTernarized) {
  constexpr size_t n = 140;
  const AlphaCase& ac = GetParam();
  EdgeList edges = gen::zipf_tree(n, ac.alpha, 2121);
  Ternarizer<TopologyTree> t(n);
  RefForest ref(n);
  util::SplitMix64 rng(66);
  for (const Edge& e : edges) {
    Weight w = static_cast<Weight>(1 + rng.next(40));
    t.link(e.u, e.v, w);
    ref.link(e.u, e.v, w);
  }
  for (int q = 0; q < 120; ++q) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) continue;
    ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << ac.name;
    ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << ac.name;
  }
  for (const Edge& e : edges) {
    ASSERT_EQ(t.subtree_sum(e.u, e.v), ref.subtree_sum(e.u, e.v)) << ac.name;
    ASSERT_EQ(t.subtree_sum(e.v, e.u), ref.subtree_sum(e.v, e.u)) << ac.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, TopologyZipfQuerySweep,
                         ::testing::ValuesIn(alpha_cases()),
                         [](const auto& info) { return info.param.name; });

// Subtree queries through superunary clusters: a star and a dandelion of
// 2^12 vertices (hubs of fanout ~n and ~n/2) with random vertex weights set
// after linking, every edge in both orientations against the oracle. A hub
// crossing reads the parent's totals minus the child's, so a stale rake
// total or an off-by-one-side at the first step shows here.
template <class Tree>
void superunary_subtree_sweep(bool batched) {
  constexpr size_t n = size_t{1} << 12;
  for (const EdgeList& edges : {gen::star(n), gen::dandelion(n)}) {
    Tree t(n);
    RefForest ref(n);
    link_all(t, ref, edges, batched);
    util::SplitMix64 rng(4242);
    for (Vertex v = 0; v < n; ++v) {
      Weight w = static_cast<Weight>(1 + rng.next(1000));
      t.set_vertex_weight(v, w);
      ref.set_vertex_weight(v, w);
    }
    for (const Edge& e : edges) {
      for (auto [v, p] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
        ASSERT_EQ(t.subtree_sum(v, p), ref.subtree_sum(v, p)) << v << "," << p;
        ASSERT_EQ(t.subtree_size(v, p), ref.subtree_size(v, p))
            << v << "," << p;
      }
    }
  }
}

TEST(SuperunarySubtreeSweep, UfoTreeSingleLinks) {
  superunary_subtree_sweep<UfoTree>(/*batched=*/false);
}

// batch_link builds each hub in one batch, so its rake index is built in
// one rebuild rather than rake by rake.
TEST(SuperunarySubtreeSweep, ParUfoTreeBatchLink) {
  superunary_subtree_sweep<par::UfoTree>(/*batched=*/true);
}

// Nearest-marked queries through superunary clusters: the same star and
// dandelion with random marks, every vertex against the oracle. A hub
// crossing reads the smallest key of the hub's marks bag instead of
// scanning its rakes, so a stale or missing key shows here. Repeated after
// a save/load round trip without verification, which must still build
// the rake indexes.
template <class Tree>
void superunary_marked_sweep(bool batched) {
  constexpr size_t n = size_t{1} << 12;
  for (const EdgeList& edges : {gen::star(n), gen::dandelion(n)}) {
    Tree t(n);
    RefForest ref(n);
    link_all(t, ref, edges, batched);
    util::SplitMix64 rng(977);
    for (Vertex v = 0; v < n; ++v) {
      bool m = rng.next(64) == 0;
      t.set_mark(v, m);
      ref.set_mark(v, m);
    }
    std::vector<int64_t> want(n);
    for (Vertex v = 0; v < n; ++v) {
      want[v] = ref.nearest_marked_distance(v);
      ASSERT_EQ(t.nearest_marked_distance(v), want[v]) << v;
    }
    const std::string path = testing::TempDir() + "ufo_marked_sweep_" +
                             std::to_string(getpid()) + ".snap";
    ASSERT_EQ(recovery::ForestSerializer::save(t, path),
              recovery::RecoveryError::kNone);
    Tree loaded(n);
    ASSERT_EQ(recovery::ForestSerializer::load(
                  loaded, path, recovery::LoadOptions{.verify = false}),
              recovery::RecoveryError::kNone);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.check_valid());
    for (Vertex v = 0; v < n; ++v)
      ASSERT_EQ(loaded.nearest_marked_distance(v), want[v])
          << "after load " << v;
  }
}

TEST(SuperunaryMarkedSweep, UfoTreeSingleLinks) {
  superunary_marked_sweep<UfoTree>(/*batched=*/false);
}

TEST(SuperunaryMarkedSweep, ParUfoTreeBatchLink) {
  superunary_marked_sweep<par::UfoTree>(/*batched=*/true);
}

// Two trees, 0-1-2-3 (with a degree-3 vertex 1 via 1-4) and 5-6-7, on every
// structure whose path and subtree queries share one walk per family.
template <class Tree>
class QueryPreconditions : public ::testing::Test {
 protected:
  static constexpr size_t kN = 8;
  QueryPreconditions() : t(kN), ref(kN) {
    for (Edge e : {Edge{0, 1, 5}, Edge{1, 2, 7}, Edge{2, 3, 2}, Edge{1, 4, 9},
                   Edge{5, 6, 3}, Edge{6, 7, 4}}) {
      t.link(e.u, e.v, e.w);
      ref.link(e.u, e.v, e.w);
    }
  }
  Tree t;
  RefForest ref;
};

using PreconditionTrees =
    ::testing::Types<UfoTree, par::UfoTree, TopologyTree>;
TYPED_TEST_SUITE(QueryPreconditions, PreconditionTrees);

TYPED_TEST(QueryPreconditions, EmptyPathMatchesOracle) {
  for (Vertex u = 0; u < this->kN; ++u) {
    EXPECT_EQ(this->t.path_sum(u, u), this->ref.path_sum(u, u)) << u;
    EXPECT_EQ(this->t.path_max(u, u), this->ref.path_max(u, u)) << u;
    EXPECT_EQ(this->t.path_length(u, u),
              static_cast<int64_t>(this->ref.path_length(u, u)))
        << u;
  }
}

TYPED_TEST(QueryPreconditions, DisconnectedPathQueriesAbortByName) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(this->t.path_sum(0, 6),
               "path_sum\\(0, 6\\).*different trees");
  EXPECT_DEATH(this->t.path_max(7, 3),
               "path_max\\(7, 3\\).*different trees");
  EXPECT_DEATH(this->t.path_length(4, 5),
               "path_length\\(4, 5\\).*different trees");
  Vertex a = kNoVertex, b = kNoVertex;
  EXPECT_DEATH(this->t.path_milestone(0, 6, &a, &b),
               "path_milestone\\(0, 6\\).*different trees");
  EXPECT_DEATH(this->t.path_milestone(2, 2, &a, &b),
               "path_milestone\\(2, 2\\).*empty path");
  EXPECT_EQ(this->t.path_sum(0, 3), this->ref.path_sum(0, 3));
}

TYPED_TEST(QueryPreconditions, NonEdgeSubtreeQueriesAbortByName) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(this->t.subtree_sum(0, 2),
               "subtree_sum\\(0, 2\\).*not a forest edge");
  EXPECT_DEATH(this->t.subtree_size(0, 6),
               "subtree_size\\(0, 6\\).*not a forest edge");
  EXPECT_DEATH(this->t.subtree_sum(3, 3), "subtree_sum\\(3, 3\\)");
  EXPECT_EQ(this->t.subtree_sum(1, 2), this->ref.subtree_sum(1, 2));
  EXPECT_EQ(this->t.subtree_size(1, 2), this->ref.subtree_size(1, 2));
}

}  // namespace
}  // namespace ufo::seq
