// Differential oracle suite for the parallel batch-dynamic UFO tree.
//
// par::UfoTree is validated three ways:
//   * against graph::RefForest (BFS, obviously correct) on mixed batch
//     link/cut rounds with a full query sweep;
//   * against seq::UfoTree fed the identical batch sequence (the two
//     backends share core::UfoCore, so equal answers mean the parallel
//     reclustering built an equivalent hierarchy);
//   * via the structural audits check_valid() / check_aggregates().
//
// CMake registers this binary three times — UFOTREE_NUM_THREADS=1, 2, and 4
// (par_ufo_test / _t2 / _t4) — since the fork-join pool's size is fixed at
// process start.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "connectivity/connectivity.h"
#include "core/capabilities.h"
#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "obs/metrics.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/scheduler.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::par {

// Reads and moves par::UfoTree's tag epoch, so a test can run updates
// across the epoch wrap without 2^29 of them.
class UfoTreeTestPeer {
 public:
  static uint32_t max_epoch() { return UfoTree::kMaxEpoch; }
  static uint32_t epoch(const UfoTree& t) { return t.epoch_; }
  // e must exceed every epoch handed out so far.
  static void set_epoch(UfoTree& t, uint32_t e) { t.epoch_ = e; }
};

namespace {

static_assert(core::FullDynamicTree<UfoTree>);
static_assert(core::BatchDynamic<UfoTree>);

TEST(ParUfo, SingleLinkCutSmoke) {
  UfoTree t(8);
  t.link(0, 1, 5);
  t.link(1, 2, 7);
  t.link(3, 2, 1);
  EXPECT_TRUE(t.connected(0, 3));
  EXPECT_FALSE(t.connected(0, 4));
  EXPECT_EQ(t.path_sum(0, 3), 13);
  EXPECT_EQ(t.path_max(0, 3), 7);
  EXPECT_EQ(t.path_length(0, 3), 3);
  EXPECT_TRUE(t.check_valid());
  EXPECT_TRUE(t.check_aggregates());
  t.cut(1, 2);
  EXPECT_TRUE(t.connected(0, 1));
  EXPECT_TRUE(t.connected(2, 3));
  EXPECT_FALSE(t.connected(0, 3));
  EXPECT_TRUE(t.check_valid());
}

TEST(ParUfo, BuildInBatchesAllInputs) {
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
    EXPECT_TRUE(t.check_aggregates()) << input.name;
    EXPECT_TRUE(t.connected(0, static_cast<Vertex>(n - 1))) << input.name;
  }
}

TEST(ParUfo, DestroyInBatches) {
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

// Same hierarchy answers as the sequential backend on an identical batch
// sequence: build the synthetic suite in batches on both and sweep queries.
TEST(ParUfo, MatchesSeqBackend) {
  constexpr size_t n = 600;
  for (auto& input : gen::synthetic_suite(n, 29)) {
    UfoTree p(n);
    seq::UfoTree s(n);
    auto edges = input.edges;
    util::shuffle(edges, 31);
    size_t k = 113;
    for (size_t i = 0; i < edges.size(); i += k) {
      std::vector<Edge> batch(edges.begin() + i,
                              edges.begin() + std::min(edges.size(), i + k));
      p.batch_link(batch);
      s.batch_link(batch);
    }
    util::SplitMix64 rng(37);
    for (int q = 0; q < 200; ++q) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(p.connected(u, v), s.connected(u, v)) << input.name;
      if (u == v || !s.connected(u, v)) continue;
      ASSERT_EQ(p.path_sum(u, v), s.path_sum(u, v)) << input.name;
      ASSERT_EQ(p.path_max(u, v), s.path_max(u, v)) << input.name;
      ASSERT_EQ(p.path_length(u, v), s.path_length(u, v)) << input.name;
    }
    ASSERT_EQ(p.component_diameter(0), s.component_diameter(0)) << input.name;
  }
}

// The acceptance-criteria oracle: mixed batch link/cut rounds checked
// against RefForest with a full query sweep (path, subtree, LCA, diameter,
// center/median by cost, nearest-marked).
TEST(ParUfo, MixedBatchesDifferential) {
  constexpr size_t n = 60;
  UfoTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(77);
  std::vector<std::pair<Vertex, Vertex>> live;
  for (int round = 0; round < 60; ++round) {
    std::vector<Update> batch;
    // Track this round's touched edges: the batch contract allows at most
    // one update per edge, so an edge cut this round must not be re-added
    // in the same batch (and the rng must not emit duplicate inserts).
    std::set<uint64_t> touched;
    int dels = static_cast<int>(rng.next(4));
    for (int i = 0; i < dels && !live.empty(); ++i) {
      size_t idx = rng.next(live.size());
      auto [a, b] = live[idx];
      batch.push_back({a, b, 1, true});
      touched.insert(edge_key(a, b));
      ref.cut(a, b);
      live[idx] = live.back();
      live.pop_back();
    }
    int adds = 1 + static_cast<int>(rng.next(5));
    for (int i = 0; i < adds; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      // ref already has the round's cuts and earlier adds applied, so it
      // stages the batch-consistency check (any ordering must be valid).
      if (u == v || ref.connected(u, v)) continue;
      if (!touched.insert(edge_key(u, v)).second) continue;
      Weight w = 1 + static_cast<Weight>(rng.next(30));
      batch.push_back({u, v, w, false});
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
      ASSERT_EQ(t.component_id(u) == t.component_id(v), ref.connected(u, v));
      if (u != v && ref.connected(u, v)) {
        ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "round " << round;
        ASSERT_EQ(t.path_max(u, v), ref.path_max(u, v)) << "round " << round;
        ASSERT_EQ(t.path_length(u, v),
                  static_cast<int64_t>(ref.path_length(u, v)));
      }
    }
    // Subtree queries need adjacent endpoints: probe live edges both ways.
    for (int i = 0; i < 10 && !live.empty(); ++i) {
      auto [a, b] = live[rng.next(live.size())];
      ASSERT_EQ(t.subtree_size(a, b), ref.subtree_size(a, b)) << round;
      ASSERT_EQ(t.subtree_sum(b, a), ref.subtree_sum(b, a)) << round;
    }
  }
}

// Non-local queries against the BFS oracle on a random unbounded-degree
// forest under batch churn.
TEST(ParUfo, NonLocalQueriesDifferential) {
  constexpr size_t n = 120;
  auto edges = gen::random_unbounded(n, 9);
  UfoTree t(n);
  RefForest ref(n);
  t.batch_link(edges);
  for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
  util::SplitMix64 rng(123);
  // Weights and marks flow through the shared recompute_chain path.
  for (int i = 0; i < 20; ++i) {
    Vertex v = static_cast<Vertex>(rng.next(n));
    Weight w = 1 + static_cast<Weight>(rng.next(9));
    t.set_vertex_weight(v, w);
    ref.set_vertex_weight(v, w);
    Vertex mv = static_cast<Vertex>(rng.next(n));
    t.set_mark(mv, true);
    ref.set_mark(mv, true);
  }
  ASSERT_TRUE(t.check_aggregates());
  auto ecc = [&](Vertex c) {
    size_t best = 0;
    for (Vertex x = 0; x < n; ++x)
      if (ref.connected(c, x)) best = std::max(best, ref.path_length(c, x));
    return best;
  };
  auto cost = [&](Vertex c) {
    int64_t sum = 0;
    for (Vertex x = 0; x < n; ++x)
      if (ref.connected(c, x))
        sum += static_cast<int64_t>(ref.path_length(c, x)) *
               ref.vertex_weight(x);
    return sum;
  };
  for (int i = 0; i < 40; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    Vertex r = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(t.component_diameter(u),
              static_cast<int64_t>(ref.component_diameter(u)));
    ASSERT_EQ(ecc(t.component_center(u)), ecc(ref.component_center(u)));
    ASSERT_EQ(cost(t.component_median(u)), cost(ref.component_median(u)));
    ASSERT_EQ(t.nearest_marked_distance(u), ref.nearest_marked_distance(u));
    if (ref.connected(u, v) && ref.connected(u, r))
      ASSERT_EQ(t.lca(u, v, r), ref.lca(u, v, r));
  }
  // Churn: cut a random third of the edges in one batch, re-check.
  util::shuffle(edges, 5);
  std::vector<Edge> cuts(edges.begin(), edges.begin() + edges.size() / 3);
  t.batch_cut(cuts);
  for (const Edge& e : cuts) ref.cut(e.u, e.v);
  ASSERT_TRUE(t.check_valid());
  ASSERT_TRUE(t.check_aggregates());
  for (int i = 0; i < 40; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(t.component_diameter(u),
              static_cast<int64_t>(ref.component_diameter(u)));
    ASSERT_EQ(t.nearest_marked_distance(u), ref.nearest_marked_distance(u));
  }
}

// A tree of odd diameter has two adjacent centers. Both backends return
// the smaller id (RefForest's answer), whatever shape their contraction
// hierarchies took, so the answer does not depend on the backend or on the
// update history.
TEST(ParUfo, CenterTieGoesToSmallerId) {
  constexpr size_t n = 240;
  const std::vector<EdgeList> inputs = {
      gen::path(n), gen::random_unbounded(n, 3), gen::pref_attach(n, 4),
      gen::random_degree3(n, 5)};
  for (size_t in = 0; in < inputs.size(); ++in) {
    EdgeList edges = inputs[in];
    UfoTree t(n);
    seq::UfoTree s(n);
    RefForest ref(n);
    t.batch_link(edges);
    util::shuffle(edges, 7 + in);
    for (const Edge& e : edges) {
      s.link(e.u, e.v, e.w);
      ref.link(e.u, e.v, e.w);
    }
    for (int round = 0; round < 3; ++round) {
      for (Vertex u = 0; u < n; u += 7) {
        ASSERT_EQ(t.component_center(u), ref.component_center(u))
            << "input " << in << " round " << round << " u " << u;
        ASSERT_EQ(s.component_center(u), ref.component_center(u))
            << "input " << in << " round " << round << " u " << u;
      }
      // Split off a few subtrees and check the pieces.
      std::vector<Edge> cuts(edges.end() - 5, edges.end());
      edges.resize(edges.size() - 5);
      t.batch_cut(cuts);
      for (const Edge& e : cuts) {
        s.cut(e.u, e.v);
        ref.cut(e.u, e.v);
      }
    }
  }
}

// Rake-attaches into a surviving superunary parent cache each new rake's
// contribution before the end-of-batch flush has computed the rake's
// aggregates; the flush must replace exactly that contribution. Subtrees of
// a weighted, marked star and dandelion move between the hub and other
// vertices in batches (cut + re-link in one batch, plain cuts, re-links of
// cut-off subtrees), so the rakes include clusters built in the same batch,
// and every batch is audited against RefForest.
TEST(ParUfo, StaleRakeContributionsRefreshed) {
  constexpr size_t n = size_t{1} << 10;
  const std::vector<EdgeList> inputs = {gen::star(n), gen::dandelion(n)};
  for (size_t in = 0; in < inputs.size(); ++in) {
    util::SplitMix64 rng(300 + in);
    UfoTree t(n);
    RefForest ref(n);
    for (Vertex v = 0; v < n; ++v) {
      Weight vw = 1 + static_cast<Weight>(rng.next(20));
      bool mark = rng.next(16) == 0;
      t.set_vertex_weight(v, vw);
      ref.set_vertex_weight(v, vw);
      t.set_mark(v, mark);
      ref.set_mark(v, mark);
    }
    EdgeList edges = inputs[in];
    for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(30));
    t.batch_link(edges);
    for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
    // Every tree rooted (the hub's at the hub): parent[v] is kNoVertex at a
    // root.
    std::vector<Vertex> parent(n, kNoVertex);
    {
      std::vector<Vertex> order{0};
      std::vector<uint8_t> seen(n, 0);
      seen[0] = 1;
      for (size_t i = 0; i < order.size(); ++i) {
        for (const Edge& e : edges) {
          Vertex o = e.u == order[i] ? e.v : e.v == order[i] ? e.u : kNoVertex;
          if (o == kNoVertex || seen[o]) continue;
          seen[o] = 1;
          parent[o] = order[i];
          order.push_back(o);
        }
      }
    }
    std::vector<uint8_t> moving(n, 0);
    // The root of v's tree, or kNoVertex if v or an ancestor is moving.
    auto settled_root = [&](Vertex v) {
      for (; parent[v] != kNoVertex; v = parent[v])
        if (moving[v]) return kNoVertex;
      return moving[v] ? kNoVertex : v;
    };
    for (int round = 0; round < 16; ++round) {
      // Movers: non-hub vertices with disjoint subtrees. New parents: the
      // hub (half the time) or a hub-tree vertex outside every moving
      // subtree, never the old parent.
      std::vector<Vertex> movers;
      for (int tries = 0; tries < 400 && movers.size() < 48; ++tries) {
        Vertex x = 1 + static_cast<Vertex>(rng.next(n - 1));
        if (settled_root(x) == kNoVertex) continue;
        bool nested = false;  // x is an ancestor of an earlier mover
        for (Vertex m : movers)
          for (Vertex v = parent[m]; v != kNoVertex && !nested; v = parent[v])
            nested = v == x;
        if (nested) continue;
        moving[x] = 1;
        movers.push_back(x);
      }
      std::vector<Update> batch;
      std::vector<std::pair<Vertex, Vertex>> moved;  // (x, new parent)
      for (Vertex x : movers) {
        Vertex old = parent[x];
        if (old != kNoVertex) {
          batch.push_back({x, old, 0, true});
          ref.cut(x, old);
          parent[x] = kNoVertex;
          if (rng.next(4) == 0) continue;  // stays cut off this round
        }
        Vertex np = 0;
        while (rng.next(2) == 1) {
          Vertex y = 1 + static_cast<Vertex>(rng.next(n - 1));
          if (settled_root(y) == 0) {
            np = y;
            break;
          }
        }
        if (np != old) moved.push_back({x, np});  // one update per edge
      }
      for (auto [x, np] : moved) {
        Weight w = 1 + static_cast<Weight>(rng.next(30));
        batch.push_back({x, np, w, false});
        ref.link(x, np, w);
        parent[x] = np;
      }
      for (Vertex x : movers) moving[x] = 0;
      t.batch_update(batch);
      ASSERT_TRUE(t.check_valid()) << "input " << in << " round " << round;
      ASSERT_TRUE(t.check_aggregates())
          << "input " << in << " round " << round;
      for (int q = 0; q < 24; ++q) {
        Vertex u = static_cast<Vertex>(rng.next(n));
        Vertex v = static_cast<Vertex>(rng.next(n));
        ASSERT_EQ(t.nearest_marked_distance(u), ref.nearest_marked_distance(u))
            << "input " << in << " round " << round << " u " << u;
        if (ref.connected(u, v))
          ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v))
              << "input " << in << " round " << round;
        if (parent[u] != kNoVertex)
          ASSERT_EQ(t.subtree_sum(u, parent[u]), ref.subtree_sum(u, parent[u]))
              << "input " << in << " round " << round << " u " << u;
      }
    }
  }
}

// par::UfoTree computes aggregates only in its end-of-batch flush, so every
// recompute is a flushed cluster and a single update recomputes about one
// cluster per level. Reads the core.recompute and par.flush.clusters
// counters, so it runs only in an instrumented build.
TEST(ParUfo, EveryRecomputeIsInTheFlush) {
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  constexpr size_t n = size_t{1} << 12;
  EdgeList ins = gen::random_unbounded(n, 21);
  EdgeList del = ins;
  util::shuffle(ins, 22);
  util::shuffle(del, 23);
  UfoTree t(n);
  auto& reg = obs::MetricsRegistry::instance();
  const obs::Counter& recomputes = reg.counter("core.recompute");
  const obs::Counter& flushed = reg.counter("par.flush.clusters");
  const int64_t r0 = recomputes.total(), f0 = flushed.total();
  for (const Edge& e : ins) t.link(e.u, e.v, e.w);
  size_t height = 0;
  for (Vertex v = 0; v < n; ++v) height = std::max(height, t.height(v));
  for (const Edge& e : del) t.cut(e.u, e.v);
  const double per_update =
      static_cast<double>(recomputes.total() - r0) / (2.0 * ins.size());
  EXPECT_EQ(recomputes.total() - r0, flushed.total() - f0);
  EXPECT_LE(per_update, static_cast<double>(height) + 4)
      << "height " << height;
  // Batches of 64: build, then cut half and re-link it.
  for (size_t i = 0; i < ins.size(); i += 64) {
    size_t end = std::min(ins.size(), i + 64);
    t.batch_link(std::vector<Edge>(ins.begin() + i, ins.begin() + end));
  }
  for (size_t i = 0; i + 64 <= del.size() / 2; i += 64) {
    std::vector<Edge> part(del.begin() + i, del.begin() + i + 64);
    t.batch_cut(part);
    t.batch_link(part);
  }
  EXPECT_EQ(recomputes.total() - r0, flushed.total() - f0);
  EXPECT_TRUE(t.check_aggregates());  // recomputes outside the flush
#else
  GTEST_SKIP() << "needs -DUFO_OBSERVABILITY=ON (reads core.recompute)";
#endif
}

// The 29-bit tag epoch wraps after about 2^29 epochs, a few per contraction
// level of every batch. The wrap renumbers the live round's roles and
// clears every other tag, so a mistake there corrupts roles and dedupes.
// Each step is a single cut and re-link (about 140-210 epochs here), then a
// cut and a re-link batch; it starts `offset` epochs short of the wrap, for
// offsets 1..256, so the wrap lands at every point of a single update: in
// teardown, detach and admit dedupes, mid-round with roles live, and in
// the flush. Every step is audited against RefForest.
TEST(ParUfo, EpochWrapKeepsRolesAndDedupes) {
  constexpr size_t n = size_t{1} << 10;
  EdgeList edges = gen::random_unbounded(n, 41);
  util::SplitMix64 rng(42);
  for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(30));
  UfoTree t(n);
  RefForest ref(n);
  for (Vertex v = 0; v < n; v += 7) {
    t.set_mark(v, true);
    ref.set_mark(v, true);
  }
  t.batch_link(edges);
  for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
  const uint32_t max = UfoTreeTestPeer::max_epoch();
  for (uint32_t offset = 1; offset <= 256; ++offset) {
    UfoTreeTestPeer::set_epoch(t, max - offset);
    const Edge& e = edges[rng.next(edges.size())];
    t.cut(e.u, e.v);
    t.link(e.u, e.v, e.w);
    std::vector<Edge> part;
    for (int i = 0; i < 24; ++i) part.push_back(edges[rng.next(edges.size())]);
    auto key = [](const Edge& a) { return edge_key(a.u, a.v); };
    std::sort(part.begin(), part.end(),
              [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
    part.erase(std::unique(part.begin(), part.end(),
                           [&](const Edge& a, const Edge& b) {
                             return key(a) == key(b);
                           }),
               part.end());
    t.batch_cut(part);
    t.batch_link(part);
    // Epochs never move backwards, so the next step may only start below
    // the wrap if this one crossed it.
    ASSERT_LT(UfoTreeTestPeer::epoch(t), max - offset)
        << "offset " << offset << ": the step did not wrap";
    ASSERT_TRUE(t.check_valid()) << "offset " << offset;
    ASSERT_TRUE(t.check_aggregates()) << "offset " << offset;
    for (int q = 0; q < 8; ++q) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      if (ref.connected(u, v))
        ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "offset " << offset;
      ASSERT_EQ(t.nearest_marked_distance(u), ref.nearest_marked_distance(u))
          << "offset " << offset;
    }
  }
}

// The connectivity subsystem gains a parallel spanning-forest backend for
// free; run its invariant audit under general-graph batch churn.
TEST(ParUfo, GraphConnectivityBackend) {
  constexpr size_t n = 150;
  conn::GraphConnectivity<UfoTree> g(n);
  util::SplitMix64 rng(55);
  EdgeList edges;
  for (int i = 0; i < 400; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u != v) edges.push_back({u, v, 1});
  }
  g.batch_insert(edges);
  ASSERT_TRUE(g.check_valid());
  util::shuffle(edges, 56);
  std::vector<Edge> half(edges.begin(), edges.begin() + edges.size() / 2);
  g.batch_erase(half);
  ASSERT_TRUE(g.check_valid());
  // Differential connectivity against the seq-backed subsystem.
  conn::GraphConnectivity<seq::UfoTree> gs(n);
  gs.batch_insert(edges);
  gs.batch_erase(half);
  for (int i = 0; i < 200; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(g.connected(u, v), gs.connected(u, v));
  }
  ASSERT_EQ(g.num_components(), gs.num_components());
}

TEST(ParUfo, WorkerCountIsPinnedAsRegistered) {
  // The ctest registrations pin UFOTREE_NUM_THREADS to 1/2/4 (and _tmax
  // leaves it unset); assert the pool actually honored the pin so a broken
  // ENVIRONMENT property or env-var rename cannot silently collapse the
  // multi-width coverage onto one width.
  const char* pin = std::getenv("UFOTREE_NUM_THREADS");
  if (pin != nullptr)
    EXPECT_EQ(num_workers(), std::atoi(pin));
  else
    EXPECT_GE(num_workers(), 1);
}

}  // namespace
}  // namespace ufo::par
