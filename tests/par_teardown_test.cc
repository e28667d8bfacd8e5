// Differential tests for the path-granular parallel teardown: small batches
// against a standing structure, under the adversarial shapes the teardown
// guard must respect (star: one giant superunary survivor; caterpillar:
// many small superunary survivors along a spine; deep path: every ancestor
// deletable), checked against seq::UfoTree fed identical batches and the
// structural audits. CMake registers this binary at 1, 2, and 4 workers
// (par_teardown_test / _t2 / _t4) plus the hardware default (_tmax), since
// the fork-join pool's size is fixed at process start.
//
// Also checks rake indexes built whole (one superunary parent of a
// batch-linked star) against ones grown rake by rake (seq's single links
// and par's rake-attach into a standing hub), at fanouts 200 to 3000.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "parallel/par_ufo_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::par {
namespace {

// A caterpillar: an n/2-vertex spine path with one pendant leaf per spine
// vertex — every spine vertex has degree >= 3, so the surviving hierarchy
// is a chain of small superunary clusters.
EdgeList caterpillar(size_t n) {
  EdgeList edges;
  size_t spine = n / 2;
  for (Vertex v = 1; v < spine; ++v)
    edges.push_back({static_cast<Vertex>(v - 1), v, 1});
  for (Vertex v = 0; v < static_cast<Vertex>(n - spine); ++v)
    edges.push_back({v % static_cast<Vertex>(spine),
                     static_cast<Vertex>(spine + v), 1});
  return edges;
}

struct Shape {
  std::string name;
  EdgeList edges;
};

std::vector<Shape> adversarial_shapes(size_t n) {
  return {{"star", gen::star(n)},
          {"caterpillar", caterpillar(n)},
          {"deep-path", gen::path(n)},
          {"dandelion", gen::dandelion(n)}};
}

void full_audit(UfoTree& p, seq::UfoTree& s, size_t n, uint64_t seed,
                const std::string& ctx) {
  ASSERT_TRUE(p.check_valid()) << ctx;
  ASSERT_TRUE(p.check_aggregates()) << ctx;
  util::SplitMix64 rng(seed);
  for (int q = 0; q < 120; ++q) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(p.connected(u, v), s.connected(u, v)) << ctx;
    if (u == v || !s.connected(u, v)) continue;
    ASSERT_EQ(p.path_sum(u, v), s.path_sum(u, v)) << ctx;
    ASSERT_EQ(p.path_max(u, v), s.path_max(u, v)) << ctx;
    ASSERT_EQ(p.path_length(u, v), s.path_length(u, v)) << ctx;
  }
  for (int q = 0; q < 10; ++q) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(p.component_diameter(u), s.component_diameter(u)) << ctx;
  }
}

// Small batches of cut+relink against a standing structure: the regime
// where the old backend rebuilt the whole component and the path-granular
// teardown must produce a hierarchy equivalent to seq's.
TEST(ParTeardown, SmallBatchChurnAdversarialShapes) {
  constexpr size_t n = 400;
  for (const auto& shape : adversarial_shapes(n)) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{17}}) {
      UfoTree p(n);
      seq::UfoTree s(n);
      p.batch_link(shape.edges);
      s.batch_link(shape.edges);
      EdgeList pool = shape.edges;
      util::SplitMix64 rng(1000 + k);
      for (int round = 0; round < 25; ++round) {
        for (size_t i = 0; i < k; ++i) {
          size_t j = i + static_cast<size_t>(rng.next(pool.size() - i));
          std::swap(pool[i], pool[j]);
        }
        std::vector<Edge> batch(pool.begin(), pool.begin() + k);
        p.batch_cut(batch);
        s.batch_cut(batch);
        full_audit(p, s, n, rng.next(1 << 30),
                   shape.name + " k=" + std::to_string(k) + " cut round " +
                       std::to_string(round));
        p.batch_link(batch);
        s.batch_link(batch);
        full_audit(p, s, n, rng.next(1 << 30),
                   shape.name + " k=" + std::to_string(k) + " link round " +
                       std::to_string(round));
      }
    }
  }
}

// Single updates (batches of one) on a large standing component exercise
// the path-granular walk end to end; answers must match seq exactly.
TEST(ParTeardown, SingleUpdatesOnStandingComponent) {
  constexpr size_t n = 2000;
  for (const auto& shape : adversarial_shapes(n)) {
    UfoTree p(n);
    seq::UfoTree s(n);
    p.batch_link(shape.edges);
    s.batch_link(shape.edges);
    EdgeList pool = shape.edges;
    util::SplitMix64 rng(7);
    for (int i = 0; i < 40; ++i) {
      const Edge& e = pool[rng.next(pool.size())];
      p.cut(e.u, e.v);
      s.cut(e.u, e.v);
      ASSERT_FALSE(p.connected(e.u, e.v)) << shape.name;
      p.link(e.u, e.v, e.w);
      s.link(e.u, e.v, e.w);
    }
    full_audit(p, s, n, 99, shape.name + " singles");
  }
}

// Mixed insert/delete batches on hub-heavy forests against the BFS oracle:
// inserts must propagate through surviving superunary chains (rake-attach)
// while deletes shed through the same parents.
TEST(ParTeardown, MixedSmallBatchesVsRef) {
  constexpr size_t n = 120;
  UfoTree t(n);
  RefForest ref(n);
  util::SplitMix64 rng(505);
  std::vector<std::pair<Vertex, Vertex>> live;
  // Hub bias: half of all endpoints are one of two hubs, so most batches
  // hit a big superunary cluster.
  auto pick = [&](int side) {
    uint64_t r = rng.next(2 * n);
    if (r < n / 2) return static_cast<Vertex>(side == 0 ? 0 : 1);
    return static_cast<Vertex>(rng.next(n));
  };
  for (int round = 0; round < 80; ++round) {
    std::vector<Update> batch;
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
      Vertex u = pick(0);
      Vertex v = pick(1);
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
    for (int i = 0; i < 25; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(n));
      Vertex v = static_cast<Vertex>(rng.next(n));
      ASSERT_EQ(t.connected(u, v), ref.connected(u, v)) << "round " << round;
      if (u != v && ref.connected(u, v)) {
        ASSERT_EQ(t.path_sum(u, v), ref.path_sum(u, v)) << "round " << round;
        ASSERT_EQ(t.path_length(u, v),
                  static_cast<int64_t>(ref.path_length(u, v)))
            << "round " << round;
      }
    }
  }
}

// A rake index built whole against one grown rake by rake: a batch-linked
// star gets one superunary parent whose index rake_index_build fills in
// one pass, while seq's single links add each rake as it attaches; both
// must answer every aggregate query identically, and check_aggregates
// itself re-verifies incremental == full rebuild on each backend.
TEST(ParTeardown, RakeIndexBulkBuildMatchesIncremental) {
  // Two hub fanouts, both far above the handful of distinct keys a bag
  // holds.
  const size_t sizes[] = {200, 1524};
  for (size_t n : sizes) {
    EdgeList edges = gen::star(n);
    util::SplitMix64 rng(3);
    for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(50));
    UfoTree p(n);
    seq::UfoTree s(n);
    p.batch_link(edges);  // one superunary parent; bulk path when large
    for (const Edge& e : edges) s.link(e.u, e.v, e.w);  // incremental path
    for (Vertex v = 1; v < 40; ++v) {
      p.set_vertex_weight(v, 2 * v);
      s.set_vertex_weight(v, 2 * v);
      if (v % 3 == 0) {
        p.set_mark(v, true);
        s.set_mark(v, true);
      }
    }
    ASSERT_TRUE(p.check_aggregates()) << n;
    ASSERT_TRUE(s.check_aggregates()) << n;
    util::SplitMix64 qr(11);
    for (int q = 0; q < 200; ++q) {
      Vertex u = static_cast<Vertex>(qr.next(n));
      Vertex v = static_cast<Vertex>(qr.next(n));
      if (u == v) continue;
      ASSERT_EQ(p.path_sum(u, v), s.path_sum(u, v)) << n;
      ASSERT_EQ(p.path_max(u, v), s.path_max(u, v)) << n;
      ASSERT_EQ(p.nearest_marked_distance(u), s.nearest_marked_distance(u));
    }
    ASSERT_EQ(p.component_diameter(0), s.component_diameter(0)) << n;
    ASSERT_EQ(p.component_center(0), s.component_center(0)) << n;
    ASSERT_EQ(p.component_median(0), s.component_median(0)) << n;
  }
}

// Rake-attach into a standing index: grow a standing star by a batch as
// large as its index and then by a small slice, shrinking back between
// rounds; every attached rake goes through add_child's index add.
TEST(ParTeardown, RakeIndexBulkAttachMatchesSeq) {
  constexpr size_t n = 3000;
  EdgeList edges = gen::star(n);
  util::SplitMix64 rng(21);
  for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(9));
  UfoTree p(n);
  seq::UfoTree s(n);
  size_t half = edges.size() / 2;
  std::vector<Edge> first(edges.begin(), edges.begin() + half);
  std::vector<Edge> second(edges.begin() + half, edges.end());
  p.batch_link(first);
  s.batch_link(first);
  // Attach a batch as large as the standing index, cut it, then attach a
  // small slice.
  for (int round = 0; round < 3; ++round) {
    p.batch_link(second);
    s.batch_link(second);
    ASSERT_TRUE(p.check_valid()) << round;
    ASSERT_TRUE(p.check_aggregates()) << round;
    full_audit(p, s, n, 300 + round, "attach round " + std::to_string(round));
    std::vector<Edge> slice(second.begin(), second.begin() + 100);
    p.batch_cut(second);
    s.batch_cut(second);
    p.batch_link(slice);
    s.batch_link(slice);
    full_audit(p, s, n, 600 + round, "slice round " + std::to_string(round));
    p.batch_cut(slice);
    s.batch_cut(slice);
  }
}

}  // namespace
}  // namespace ufo::par
