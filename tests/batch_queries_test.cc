// Tests for parallel batch queries: answers must equal the scalar query
// results element-for-element on every input family, including when the
// fork-join pool actually has worker threads (CTest runs this suite at 1,
// 2, 4 and the hardware's worker count). The BatchedRootClimb suite checks
// the lockstep root climb (UfoCore::tree_roots and the batch_connected
// path built on it) against scalar component_id/connected on every
// UfoCore-based forest, across group and block boundaries; the
// BatchedPathWalk suite checks the lockstep LCA climb and path walk
// (UfoCore::path_queries under the batched path family) the same way,
// against RefForest and the scalar path queries.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "connectivity/connectivity.h"
#include "core/batch_queries.h"
#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "parallel/par_ufo_tree.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::core {
namespace {

// Compile-time capability matrix: const-queryable vs self-adjusting.
static_assert(ConstQueryable<seq::UfoTree>);
static_assert(ConstQueryable<par::UfoTree>);
static_assert(ConstQueryable<seq::TopologyTree>);

TEST(BatchQueries, ConnectedMatchesScalar) {
  constexpr size_t n = 300;
  seq::UfoTree t(n);
  EdgeList edges = gen::random_unbounded(n, 5);
  // Drop some edges so disconnected pairs exist.
  edges.resize(edges.size() - 40);
  for (const Edge& e : edges) t.link(e.u, e.v, e.w);

  util::SplitMix64 rng(1);
  std::vector<VertexPair> q;
  for (int i = 0; i < 5000; ++i)
    q.emplace_back(static_cast<Vertex>(rng.next(n)),
                   static_cast<Vertex>(rng.next(n)));
  std::vector<uint8_t> got = batch_connected(t, q);
  ASSERT_EQ(got.size(), q.size());
  for (size_t i = 0; i < q.size(); ++i)
    ASSERT_EQ(got[i] != 0, t.connected(q[i].first, q[i].second)) << i;
}

TEST(BatchQueries, PathAggregatesMatchScalar) {
  constexpr size_t n = 300;
  seq::UfoTree t(n);
  util::SplitMix64 rng(2);
  for (const Edge& e : gen::pref_attach(n, 7))
    t.link(e.u, e.v, static_cast<Weight>(1 + rng.next(99)));

  std::vector<VertexPair> q;
  for (int i = 0; i < 5000; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) v = (v + 1) % n;
    q.emplace_back(u, v);
  }
  std::vector<Weight> sums = batch_path_sum(t, q);
  std::vector<Weight> maxes = batch_path_max(t, q);
  for (size_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(sums[i], t.path_sum(q[i].first, q[i].second)) << i;
    ASSERT_EQ(maxes[i], t.path_max(q[i].first, q[i].second)) << i;
  }
}

TEST(BatchQueries, SubtreeSumMatchesScalar) {
  constexpr size_t n = 250;
  seq::UfoTree t(n);
  EdgeList edges = gen::dandelion(n);
  for (const Edge& e : edges) t.link(e.u, e.v, e.w);
  util::SplitMix64 rng(3);
  for (Vertex v = 0; v < n; ++v)
    t.set_vertex_weight(v, static_cast<Weight>(rng.next(50)));

  std::vector<VertexPair> q;
  for (const Edge& e : edges) {
    q.emplace_back(e.u, e.v);
    q.emplace_back(e.v, e.u);
  }
  std::vector<Weight> got = batch_subtree_sum(t, q);
  for (size_t i = 0; i < q.size(); ++i)
    ASSERT_EQ(got[i], t.subtree_sum(q[i].first, q[i].second)) << i;
}

TEST(BatchQueries, LcaMatchesScalar) {
  constexpr size_t n = 200;
  seq::UfoTree t(n);
  for (const Edge& e : gen::random_unbounded(n, 11)) t.link(e.u, e.v, e.w);
  util::SplitMix64 rng(4);
  std::vector<std::array<Vertex, 3>> q;
  while (q.size() < 2000) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    Vertex r = static_cast<Vertex>(rng.next(n));
    if (u == v || v == r || u == r) continue;
    q.push_back({u, v, r});
  }
  std::vector<Vertex> got = batch_lca(t, q);
  for (size_t i = 0; i < q.size(); ++i)
    ASSERT_EQ(got[i], t.lca(q[i][0], q[i][1], q[i][2])) << i;
}

TEST(BatchQueries, ParUfoBackendAndPathLength) {
  // The parallel backend shares the const query suite through
  // core::UfoCore, so batch queries fan out over it unchanged — and its
  // updates arrive in batches, making the hierarchy the path-granular
  // teardown leaves behind the one being queried.
  constexpr size_t n = 300;
  par::UfoTree t(n);
  EdgeList edges = gen::pref_attach(n, 7);
  util::SplitMix64 rng(6);
  for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(99));
  t.batch_link(edges);

  std::vector<VertexPair> q;
  for (int i = 0; i < 4000; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) v = (v + 1) % n;
    q.emplace_back(u, v);
  }
  std::vector<uint8_t> conn = batch_connected(t, q);
  std::vector<Weight> sums = batch_path_sum(t, q);
  std::vector<int64_t> lens = batch_path_length(t, q);
  for (size_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(conn[i] != 0, t.connected(q[i].first, q[i].second)) << i;
    ASSERT_EQ(sums[i], t.path_sum(q[i].first, q[i].second)) << i;
    ASSERT_EQ(lens[i], t.path_length(q[i].first, q[i].second)) << i;
  }
}

TEST(BatchQueries, TopologyTreeBackend) {
  constexpr size_t n = 260;
  seq::TopologyTree t(n);
  util::SplitMix64 rng(5);
  for (const Edge& e : gen::random_degree3(n, 13))
    t.link(e.u, e.v, static_cast<Weight>(1 + rng.next(20)));
  std::vector<VertexPair> q;
  for (int i = 0; i < 3000; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) v = (v + 1) % n;
    q.emplace_back(u, v);
  }
  std::vector<Weight> sums = batch_path_sum(t, q);
  for (size_t i = 0; i < q.size(); ++i)
    ASSERT_EQ(sums[i], t.path_sum(q[i].first, q[i].second)) << i;
}

TEST(BatchQueries, InterleavedWithUpdates) {
  // Queries between update batches see the current tree state.
  constexpr size_t n = 120;
  seq::UfoTree t(n);
  RefForest ref(n);
  EdgeList edges = gen::zipf_tree(n, 1.0, 17);
  util::SplitMix64 rng(6);
  for (const Edge& e : edges) {
    t.link(e.u, e.v, e.w);
    ref.link(e.u, e.v, e.w);
  }
  for (int round = 0; round < 10; ++round) {
    size_t i = rng.next(edges.size());
    Edge e = edges[i];
    t.cut(e.u, e.v);
    ref.cut(e.u, e.v);
    std::vector<VertexPair> q;
    for (int j = 0; j < 500; ++j)
      q.emplace_back(static_cast<Vertex>(rng.next(n)),
                     static_cast<Vertex>(rng.next(n)));
    std::vector<uint8_t> got = batch_connected(t, q);
    for (size_t j = 0; j < q.size(); ++j)
      ASSERT_EQ(got[j] != 0, ref.connected(q[j].first, q[j].second));
    t.link(e.u, e.v, e.w);
    ref.link(e.u, e.v, e.w);
  }
}

// One forest of mixed heights: a path, a star, a random tree and isolated
// vertices, so the chains of one group finish at different sweeps.
constexpr size_t kMixedN = 1250;

EdgeList mixed_forest() {
  EdgeList edges = gen::path(400);  // vertices 0..399
  for (Vertex v = 401; v < 600; ++v) edges.push_back({400, v, 1});
  for (Edge e : gen::random_unbounded(600, 31)) {
    e.u += 600;
    e.v += 600;
    edges.push_back(e);
  }
  return edges;  // 1200..1249 stay isolated
}

// The tree types under test, each behind the same build/cut/link surface.
struct SeqUfo {
  seq::UfoTree t{kMixedN};
  explicit SeqUfo(const EdgeList& edges) {
    for (const Edge& e : edges) t.link(e.u, e.v, e.w);
  }
  const seq::UfoTree& tree() const { return t; }
  void cut(const EdgeList& edges) { t.batch_cut(edges); }
  void link(const EdgeList& edges) { t.batch_link(edges); }
};

struct ParUfo {
  par::UfoTree t{kMixedN};
  explicit ParUfo(const EdgeList& edges) { t.batch_link(edges); }
  const par::UfoTree& tree() const { return t; }
  void cut(const EdgeList& edges) { t.batch_cut(edges); }
  void link(const EdgeList& edges) { t.batch_link(edges); }
};

// GraphConnectivity's size-only spanning forest. The input is a forest, so
// every inserted edge is a tree edge and erasing one cuts it.
struct ConnForest {
  conn::GraphConnectivity<par::UfoTree> g{kMixedN};
  explicit ConnForest(const EdgeList& edges) {
    EXPECT_EQ(g.batch_insert(edges), conn::BatchStatus::kOk);
  }
  const par::UfoTree& tree() const { return g.forest(); }
  void cut(const EdgeList& edges) {
    EXPECT_EQ(g.batch_erase(edges), conn::BatchStatus::kOk);
  }
  void link(const EdgeList& edges) {
    EXPECT_EQ(g.batch_insert(edges), conn::BatchStatus::kOk);
  }
};

template <class Tree>
void expect_batched_matches_scalar(const Tree& t, uint64_t seed) {
  constexpr size_t G = UfoCore::kRootGroup;
  util::SplitMix64 rng(seed);
  auto any = [&] { return static_cast<Vertex>(rng.next(kMixedN)); };
  for (size_t len : {size_t{0}, size_t{1}, G - 1, G, G + 1, size_t{1000}}) {
    std::vector<Vertex> vs(len);
    for (Vertex& v : vs) v = any();
    std::vector<uint32_t> roots(len);
    t.tree_roots(vs.data(), len, roots.data());
    for (size_t i = 0; i < len; ++i)
      ASSERT_EQ(roots[i], t.component_id(vs[i])) << "len " << len << " i " << i;

    // Pairs: u == v, a pair inside the path (connected), a path-to-star
    // pair (disconnected), an isolated endpoint, and random pairs.
    std::vector<VertexPair> q(len);
    for (size_t i = 0; i < len; ++i) {
      switch (i % 5) {
        case 0: {
          Vertex v = any();
          q[i] = {v, v};
          break;
        }
        case 1: q[i] = {static_cast<Vertex>(rng.next(400)), 399}; break;
        case 2: q[i] = {static_cast<Vertex>(rng.next(400)), 400}; break;
        case 3: q[i] = {1200 + static_cast<Vertex>(rng.next(50)), any()}; break;
        default: q[i] = {any(), any()};
      }
    }
    std::vector<uint8_t> got = batch_connected(t, q);
    ASSERT_EQ(got.size(), len);
    for (size_t i = 0; i < len; ++i)
      ASSERT_EQ(got[i] != 0, t.connected(q[i].first, q[i].second))
          << "len " << len << " pair " << i;
  }
}

template <class T>
class BatchedRootClimb : public ::testing::Test {};
using RootClimbTrees = ::testing::Types<SeqUfo, ParUfo, ConnForest>;
TYPED_TEST_SUITE(BatchedRootClimb, RootClimbTrees);

TYPED_TEST(BatchedRootClimb, MatchesScalarAcrossUpdates) {
  const EdgeList edges = mixed_forest();
  TypeParam f(edges);
  expect_batched_matches_scalar(f.tree(), 1);

  // Cut every 7th edge (the path, star and random tree all lose some),
  // check, then link them back and check again.
  EdgeList cuts;
  for (size_t i = 0; i < edges.size(); i += 7) cuts.push_back(edges[i]);
  f.cut(cuts);
  ASSERT_FALSE(f.tree().connected(0, 399));
  expect_batched_matches_scalar(f.tree(), 2);
  f.link(cuts);
  ASSERT_TRUE(f.tree().connected(0, 399));
  expect_batched_matches_scalar(f.tree(), 3);
}

// The mixed forest with edge weights of both signs.
EdgeList signed_mixed_forest() {
  EdgeList edges = mixed_forest();
  util::SplitMix64 rng(41);
  for (Edge& e : edges) e.w = static_cast<Weight>(rng.next(201)) - 100;
  return edges;
}

template <class Tree>
void expect_paths_match(const Tree& t, const RefForest& ref, uint64_t seed) {
  constexpr size_t G = UfoCore::kRootGroup, B = kClimbBlock;
  util::SplitMix64 rng(seed);
  for (size_t len : {size_t{0}, size_t{1}, G - 1, G, G + 1, B - 1, B, B + 1,
                     size_t{1000}}) {
    // Connected pairs only; every fifth is u == v, the empty path.
    std::vector<VertexPair> q(len);
    for (size_t i = 0; i < len; ++i) {
      const Vertex u = static_cast<Vertex>(rng.next(kMixedN));
      const std::vector<Vertex> comp = ref.component(u);
      q[i] = {u, i % 5 == 0 ? u : comp[rng.next(comp.size())]};
    }
    const std::vector<Weight> sums = batch_path_sum(t, q);
    const std::vector<Weight> maxes = batch_path_max(t, q);
    const std::vector<int64_t> lens = batch_path_length(t, q);
    ASSERT_EQ(sums.size(), len);
    ASSERT_EQ(maxes.size(), len);
    ASSERT_EQ(lens.size(), len);
    for (size_t i = 0; i < len; ++i) {
      SCOPED_TRACE(::testing::Message() << "len " << len << " pair " << i);
      const auto [u, v] = q[i];
      ASSERT_EQ(sums[i], ref.path_sum(u, v));
      ASSERT_EQ(maxes[i], ref.path_max(u, v));
      ASSERT_EQ(lens[i], static_cast<int64_t>(ref.path_length(u, v)));
      ASSERT_EQ(sums[i], t.path_sum(u, v));
      ASSERT_EQ(maxes[i], t.path_max(u, v));
      ASSERT_EQ(lens[i], t.path_length(u, v));
    }
  }
}

template <class T>
class BatchedPathWalk : public ::testing::Test {};
using PathWalkTrees = ::testing::Types<SeqUfo, ParUfo>;
TYPED_TEST_SUITE(BatchedPathWalk, PathWalkTrees);

TYPED_TEST(BatchedPathWalk, MatchesRefForestAcrossUpdates) {
  const EdgeList edges = signed_mixed_forest();
  TypeParam f(edges);
  RefForest ref(kMixedN);
  for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
  expect_paths_match(f.tree(), ref, 1);

  // Cut every 7th edge, check, then link them back and check again.
  EdgeList cuts;
  for (size_t i = 0; i < edges.size(); i += 7) cuts.push_back(edges[i]);
  f.cut(cuts);
  for (const Edge& e : cuts) ref.cut(e.u, e.v);
  ASSERT_FALSE(f.tree().connected(0, 399));
  expect_paths_match(f.tree(), ref, 2);
  f.link(cuts);
  for (const Edge& e : cuts) ref.link(e.u, e.v, e.w);
  ASSERT_TRUE(f.tree().connected(0, 399));
  expect_paths_match(f.tree(), ref, 3);
}

TEST(BatchQueries, EmptyBatch) {
  seq::UfoTree t(4);
  t.link(0, 1);
  EXPECT_TRUE(batch_connected(t, {}).empty());
  EXPECT_TRUE(batch_path_sum(t, {}).empty());
}

}  // namespace
}  // namespace ufo::core
