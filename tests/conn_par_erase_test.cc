// Adversarial tests for the replacement search behind batch_erase and
// erase(), typed over both UFO backends (seq::UfoTree and par::UfoTree).
// Every scenario checks each erase batch against a BFS oracle (edge and
// component counts, connectivity probes, component sizes) and audits
// invariants after every wave. Registered at 1/2/4/max workers like the
// other par suites, and part of the TSan job.
//
// The search rests on the largest-piece exemption: after a cut batch, each
// original component is split into pieces, and every crossing non-tree edge
// has an endpoint outside the component's largest piece. So only the
// non-largest pieces are labelled and scanned; a piece stops scanning once
// it emits an edge into its largest piece, and the emitted edges are staged
// into one batch_link. The scenarios target that rule's hard cases:
//   * star shatter — thousands of one- or two-vertex pieces around one huge
//     exempt hub piece, with and without rim chords;
//   * path / grid shatter — long chains of pieces;
//   * power-law shatter — skewed piece sizes, many pieces per batch;
//   * full-component deletion — tree and non-tree edges in one batch;
//   * chains of pieces where only neighbouring pieces share chords: a piece
//     that reaches the largest only through another non-largest piece, two
//     equal-size pieces (the tie rule), and a largest piece with no
//     non-tree edges at all;
//   * duplicate / absent / self-loop entries mixed into every batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "connectivity/connectivity.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::conn {
namespace {

// Brute-force oracle: adjacency sets + BFS for every query.
class BfsOracle {
 public:
  explicit BfsOracle(size_t n) : adj_(n) {}

  void insert(Vertex u, Vertex v) {
    if (u == v || u >= adj_.size() || v >= adj_.size() || adj_[u].count(v))
      return;
    adj_[u].insert(v);
    adj_[v].insert(u);
    ++edges_;
  }
  void erase(Vertex u, Vertex v) {
    if (u == v || u >= adj_.size() || v >= adj_.size() || !adj_[u].count(v))
      return;
    adj_[u].erase(v);
    adj_[v].erase(u);
    --edges_;
  }
  size_t num_edges() const { return edges_; }

  // v's component in BFS order.
  std::vector<Vertex> component(Vertex v) const {
    std::vector<Vertex> seen{v};
    std::set<Vertex> vis{v};
    for (size_t h = 0; h < seen.size(); ++h)
      for (Vertex y : adj_[seen[h]])
        if (vis.insert(y).second) seen.push_back(y);
    return seen;
  }
  bool connected(Vertex u, Vertex v) const {
    std::vector<Vertex> c = component(u);
    return std::find(c.begin(), c.end(), v) != c.end();
  }
  size_t component_size(Vertex v) const { return component(v).size(); }
  size_t num_components() const {
    std::vector<bool> vis(adj_.size(), false);
    size_t comps = 0;
    for (Vertex v = 0; v < adj_.size(); ++v) {
      if (vis[v]) continue;
      ++comps;
      std::vector<Vertex> seen{v};
      vis[v] = true;
      for (size_t h = 0; h < seen.size(); ++h)
        for (Vertex y : adj_[seen[h]])
          if (!vis[y]) {
            vis[y] = true;
            seen.push_back(y);
          }
    }
    return comps;
  }

 private:
  std::vector<std::set<Vertex>> adj_;
  size_t edges_ = 0;
};

// Apply every update to the connectivity structure and the oracle; then
// cross-check them.
template <class Backend>
struct Harness {
  GraphConnectivity<Backend> g;
  BfsOracle oracle;

  explicit Harness(size_t n) : g(n), oracle(n) {}

  void insert_all(const EdgeList& edges) {
    EXPECT_EQ(g.batch_insert(edges), BatchStatus::kOk);
    for (const Edge& e : edges) oracle.insert(e.u, e.v);
  }

  void erase_batch(const EdgeList& batch) {
    EXPECT_EQ(g.batch_erase(batch), BatchStatus::kOk);
    // Oracle semantics: duplicates/absent are no-ops, as in batch_erase.
    for (const Edge& e : batch) oracle.erase(e.u, e.v);
  }

  void check(util::SplitMix64& rng, size_t probes) {
    ASSERT_EQ(g.num_edges(), oracle.num_edges());
    ASSERT_EQ(g.num_components(), oracle.num_components());
    ASSERT_EQ(g.num_tree_edges(), g.size() - g.num_components());
    for (size_t p = 0; p < probes; ++p) {
      Vertex a = static_cast<Vertex>(rng.next(g.size()));
      Vertex b = static_cast<Vertex>(rng.next(g.size()));
      ASSERT_EQ(g.connected(a, b), oracle.connected(a, b)) << a << "-" << b;
      ASSERT_EQ(g.component_size(a), oracle.component_size(a)) << a;
    }
    ASSERT_TRUE(g.check_valid());
  }
};

template <class Backend>
class BatchErase : public ::testing::Test {};
using Backends = ::testing::Types<seq::UfoTree, par::UfoTree>;
TYPED_TEST_SUITE(BatchErase, Backends);

// Salt a batch with adversarial entries: in-batch duplicates (both
// orientations), absent edges, self-loops, out-of-range-free randoms.
void salt(EdgeList* batch, size_t n, util::SplitMix64& rng) {
  if (!batch->empty()) {
    Edge d = batch->front();
    batch->push_back(d);
    batch->push_back({d.v, d.u});  // flipped duplicate
  }
  batch->push_back({static_cast<Vertex>(rng.next(n)),
                    static_cast<Vertex>(rng.next(n))});  // likely absent
  Vertex s = static_cast<Vertex>(rng.next(n));
  batch->push_back({s, s});  // self-loop
}

TYPED_TEST(BatchErase, StarShatterNoReplacements) {
  // Shatter a bare star in one batch: n - 1 single-vertex pieces scan
  // clean, and the exempt hub is never scanned. No replacement exists;
  // component count must jump to n.
  constexpr size_t n = 257;
  Harness<TypeParam> t(n);
  EdgeList spokes = gen::star(n);
  t.insert_all(spokes);
  util::SplitMix64 rng(42);
  EdgeList batch = spokes;
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.g.num_components(), n);
  t.check(rng, 50);
}

TYPED_TEST(BatchErase, StarShatterWithChordReplacements) {
  // Star plus a rim path: cutting waves of spokes leaves rim chords as
  // replacements, both between leaf pieces and into the hub piece.
  constexpr size_t n = 193;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::star(n);
  for (Vertex i = 1; i + 1 < n; ++i)
    edges.push_back({i, static_cast<Vertex>(i + 1)});  // rim
  t.insert_all(edges);
  util::SplitMix64 rng(7);
  EdgeList spokes = gen::star(n);
  util::shuffle(spokes, 11);
  for (size_t at = 0; at < spokes.size(); at += 48) {
    EdgeList batch(spokes.begin() + static_cast<ptrdiff_t>(at),
                   spokes.begin() + static_cast<ptrdiff_t>(
                                        std::min(spokes.size(), at + 48)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 30);
  }
  EXPECT_EQ(t.g.num_components(), 2u);  // rim path + vertex 0
}

TYPED_TEST(BatchErase, PathShatterEveryOtherEdge) {
  // Cutting every other edge of a path makes ~n/2 two-vertex pieces in one
  // batch — maximal pair count, zero replacements.
  constexpr size_t n = 256;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::path(n);
  t.insert_all(edges);
  util::SplitMix64 rng(13);
  EdgeList batch;
  for (size_t i = 0; i < edges.size(); i += 2) batch.push_back(edges[i]);
  salt(&batch, n, rng);
  t.erase_batch(batch);
  t.check(rng, 50);
}

TYPED_TEST(BatchErase, GridShatterWithReplacements) {
  // Random grid edges cut in batches: the remaining edges supply
  // replacements between many pieces of many sizes at once.
  constexpr size_t rows = 12, cols = 12, n = rows * cols;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::grid_graph(rows, cols);
  t.insert_all(edges);
  util::SplitMix64 rng(99);
  EdgeList pool = edges;
  util::shuffle(pool, 3);
  for (size_t at = 0; at < pool.size(); at += 64) {
    EdgeList batch(pool.begin() + static_cast<ptrdiff_t>(at),
                   pool.begin() + static_cast<ptrdiff_t>(
                                      std::min(pool.size(), at + 64)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 30);
  }
  EXPECT_EQ(t.g.num_edges(), 0u);
  EXPECT_EQ(t.g.num_components(), n);
}

TYPED_TEST(BatchErase, PowerLawChurn) {
  // Preferential-attachment graph: skewed degrees mean cut batches mix huge
  // and tiny pieces; interleave erase and re-insert waves.
  constexpr size_t n = 300;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::social_graph(n, 4, 17);
  t.insert_all(edges);
  util::SplitMix64 rng(555);
  EdgeList pool = edges;
  for (size_t wave = 0; wave < 10; ++wave) {
    util::shuffle(pool, 100 + wave);
    EdgeList batch(pool.begin(),
                   pool.begin() + static_cast<ptrdiff_t>(
                                      std::min<size_t>(pool.size(), 90)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 25);
    // Re-insert half of what we just removed so later waves hit tree and
    // non-tree edges in fresh proportions.
    EdgeList back(batch.begin(),
                  batch.begin() + static_cast<ptrdiff_t>(batch.size() / 2));
    t.insert_all(back);
    t.check(rng, 10);
  }
}

TYPED_TEST(BatchErase, FullComponentDeletion) {
  // Delete every edge of a multi-cycle component in ONE batch: tree and
  // non-tree edges together, so promoted replacements must themselves get
  // erased within the same call's classification (they were classified
  // before the cut — promotion happens after, and the promoted edges were
  // part of the batch's non-tree set). Ends fully disconnected.
  constexpr size_t rows = 8, cols = 8, n = rows * cols;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::grid_graph(rows, cols);
  t.insert_all(edges);
  util::SplitMix64 rng(31);
  EdgeList batch = edges;
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.g.num_edges(), 0u);
  EXPECT_EQ(t.g.num_components(), n);
  t.check(rng, 40);
}

TYPED_TEST(BatchErase, ManySmallComponentsThroughputShape) {
  // Disjoint triangles, one edge cut from each in a single batch: k
  // independent two-piece components, each of which promotes its
  // triangle's non-tree edge.
  constexpr size_t tri = 64, n = 3 * tri;
  Harness<TypeParam> t(n);
  EdgeList edges;
  for (size_t c = 0; c < tri; ++c) {
    Vertex a = static_cast<Vertex>(3 * c);
    edges.push_back({a, static_cast<Vertex>(a + 1)});
    edges.push_back({static_cast<Vertex>(a + 1), static_cast<Vertex>(a + 2)});
    edges.push_back({static_cast<Vertex>(a + 2), a});
  }
  t.insert_all(edges);
  ASSERT_EQ(t.g.num_components(), tri);
  util::SplitMix64 rng(77);
  EdgeList batch;
  for (size_t c = 0; c < tri; ++c) batch.push_back(edges[3 * c]);
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.g.num_components(), tri);  // every triangle reconnected
  t.check(rng, 40);
}

TYPED_TEST(BatchErase, SingleEdgeBatchesMatchSingleErase) {
  // One cut makes two pieces: the smaller side is scanned until its first
  // replacement (HDT's rule). Alternate k=1 batches with erase(), which
  // runs the same search.
  constexpr size_t n = 100;
  Harness<TypeParam> t(n);
  EdgeList edges = gen::social_graph(n, 3, 5);
  t.insert_all(edges);
  util::SplitMix64 rng(8);
  EdgeList pool = edges;
  util::shuffle(pool, 1);
  for (size_t i = 0; i < std::min<size_t>(pool.size(), 60); ++i) {
    if (i % 2 == 0) {
      t.erase_batch({pool[i]});
    } else {
      EXPECT_TRUE(t.g.erase(pool[i].u, pool[i].v));
      t.oracle.erase(pool[i].u, pool[i].v);
    }
    if (i % 10 == 9) t.check(rng, 20);
  }
  t.check(rng, 40);
}

// One component per spec: a path whose consecutive runs of vertices are the
// pieces, with the given sizes. The path edges are the spanning tree;
// chords {piece, offset, piece, offset} are inserted afterwards, so they
// are non-tree edges. Erasing every piece boundary in one batch leaves
// exactly these pieces for the replacement search.
struct ChainSpec {
  std::vector<size_t> sizes;
  std::vector<std::array<size_t, 4>> chords;
};

template <class Backend>
void erase_piece_boundaries(const std::vector<ChainSpec>& chains,
                            size_t want_components) {
  size_t n = 0;
  for (const ChainSpec& c : chains)
    for (size_t sz : c.sizes) n += sz;
  Harness<Backend> t(n);
  EdgeList tree, chords, cuts;
  Vertex base = 0;
  for (const ChainSpec& c : chains) {
    std::vector<Vertex> start;
    Vertex end = base;
    for (size_t sz : c.sizes) {
      start.push_back(end);
      end += static_cast<Vertex>(sz);
    }
    for (Vertex x = base; x + 1 < end; ++x) tree.push_back({x, x + 1});
    for (size_t i = 1; i < start.size(); ++i)
      cuts.push_back({start[i] - 1, start[i]});
    for (const auto& ch : c.chords)
      chords.push_back({static_cast<Vertex>(start[ch[0]] + ch[1]),
                        static_cast<Vertex>(start[ch[2]] + ch[3])});
    base = end;
  }
  t.insert_all(tree);
  t.insert_all(chords);
  ASSERT_EQ(t.g.num_tree_edges(), tree.size());
  ASSERT_EQ(t.g.num_edges(), tree.size() + chords.size());
  t.erase_batch(cuts);
  EXPECT_EQ(t.g.num_components(), want_components);
  util::SplitMix64 rng(n);
  t.check(rng, 4 * n);
}

TYPED_TEST(BatchErase, PieceReachesLargestOnlyThroughAnotherPiece) {
  // The last piece(s) of each chain touch only their non-largest
  // neighbour, so they rejoin the largest piece through it.
  erase_piece_boundaries<TypeParam>(
      {{{12, 4, 2}, {{0, 10, 1, 2}, {1, 0, 2, 1}}},
       {{2, 4, 12}, {{0, 0, 1, 1}, {1, 3, 2, 5}}},
       {{12, 3, 3, 3}, {{0, 11, 1, 1}, {1, 1, 2, 1}, {2, 1, 3, 2}}}},
      3);
}

TYPED_TEST(BatchErase, EqualSizePiecesTieRule) {
  // The largest size is shared by two pieces; exactly one of them is exempt
  // and the other is scanned, whether or not they share a chord.
  erase_piece_boundaries<TypeParam>(
      {{{5, 5}, {{0, 0, 1, 4}}},                   // rejoined
       {{5, 5}, {{0, 0, 0, 3}}},                   // split, chord internal
       {{4, 4, 4}, {{0, 1, 1, 2}, {1, 0, 2, 3}}},  // rejoined
       {{6, 6, 2}, {{0, 4, 1, 0}, {1, 5, 2, 1}}},  // rejoined
       {{6, 6, 2}, {{1, 5, 2, 1}}}},               // two components
      1 + 2 + 1 + 1 + 2);
}

TYPED_TEST(BatchErase, LargestPieceWithoutNontreeEdges) {
  // No non-tree edge touches the largest piece, so no scan ever meets an
  // unlabelled vertex and no piece stops early; the largest piece ends up
  // alone.
  erase_piece_boundaries<TypeParam>(
      {{{10, 3, 3}, {{1, 0, 2, 2}, {1, 0, 1, 2}}},  // 10 | 3+3
       {{3, 10, 3}, {{0, 0, 0, 2}}},                // 3 | 10 | 3
       {{2, 3, 9}, {{0, 1, 1, 2}}}},                // 2+3 | 9
      2 + 3 + 2);
}

}  // namespace
}  // namespace ufo::conn
