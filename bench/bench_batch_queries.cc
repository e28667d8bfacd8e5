// Batch query throughput: read-only queries fanned across the fork-join
// pool vs issued one at a time. Reproduces the paper's Section 6.1
// observation that contraction-tree queries (pure reads) parallelize
// trivially, unlike self-adjusting structures that mutate on read. On a
// UFO tree each batched task also climbs a block of pairs in lockstep:
// path queries to their LCA clusters (UfoCore::path_queries), connectivity
// to the roots (UfoCore::tree_roots), so on deep trees the batched rate
// beats the scalar loop even on one core. Both tables cover a low-diameter
// Zipf tree, a BFS spanning tree of a grid and a path, with each tree's
// depth; the connectivity table adds a star. The Topology row answers one
// path query per index. Exits 1 if any batched answer differs from the
// scalar one.
#include <array>
#include <cmath>
#include <utility>

#include "bench/common.h"
#include "core/batch_queries.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/scheduler.h"
#include "seq/topology_tree.h"
#include "seq/ternarize.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

std::vector<core::VertexPair> make_queries(size_t n, size_t nq,
                                           uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<core::VertexPair> q;
  q.reserve(nq);
  for (size_t i = 0; i < nq; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    if (u == v) v = (v + 1) % static_cast<Vertex>(n);
    q.emplace_back(u, v);
  }
  return q;
}

template <class Tree>
bool run(const char* name, Tree& t, size_t n, size_t nq, uint64_t seed) {
  std::vector<core::VertexPair> q = make_queries(n, nq, seed);

  util::Timer t1;
  std::vector<Weight> want;
  want.reserve(nq);
  for (const auto& [u, v] : q) want.push_back(t.path_sum(u, v));
  double scalar = t1.elapsed();

  util::Timer t2;
  std::vector<Weight> got = core::batch_path_sum(t, q);
  double batched = t2.elapsed();

  const bool ok = got == want;
  std::printf("%-26s %8zu %12.0f %12.0f %12s\n", name, t.height(0),
              nq / scalar, nq / batched, ok ? "ok" : "MISMATCH");
  return ok;
}

template <class Tree>
bool run_connectivity(const char* name, Tree& t, size_t n, size_t nq,
                      uint64_t seed) {
  std::vector<core::VertexPair> q = make_queries(n, nq, seed);

  util::Timer t1;
  std::vector<uint8_t> want;
  want.reserve(nq);
  for (const auto& [u, v] : q) want.push_back(t.connected(u, v) ? 1 : 0);
  double scalar = t1.elapsed();

  util::Timer t2;
  std::vector<uint8_t> got = core::batch_connected(t, q);
  double batched = t2.elapsed();

  const bool ok = got == want;
  std::printf("%-26s %8zu %12.0f %12.0f %12s\n", name, t.height(0),
              nq / scalar, nq / batched, ok ? "ok" : "MISMATCH");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 20000 : 200000);
  size_t nq = opt.quick ? 50000 : 200000;
  bool ok = true;
  std::printf("[batch-queries] path_sum throughput, n=%zu, %zu queries, "
              "%d workers\n", n, nq, par::num_workers());
  std::printf("%-26s %8s %12s %12s %12s\n", "structure", "depth(0)",
              "scalar q/s", "batched q/s", "check");

  util::SplitMix64 rng(1);
  auto weigh = [&](EdgeList edges) {
    for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(50));
    return edges;
  };
  EdgeList edges = weigh(gen::zipf_tree(n, 1.0, 404));

  seq::UfoTree ufo(n);
  for (const Edge& e : edges) ufo.link(e.u, e.v, e.w);
  ok &= run("UFO Tree (seq) zipf", ufo, n, nq, 9);

  // The parallel backend shares the query suite through core::UfoCore, so
  // the same read-only fan-out applies — this is the "par" column: batched
  // throughput here scales with the pool width on multicore hosts.
  par::UfoTree pufo(n);
  pufo.batch_link(edges);
  ok &= run("UFO Tree (par) zipf", pufo, n, nq, 9);

  // Query the ternarized structure's inner tree directly: original vertex
  // ids occupy slots 0..n-1 and chain edges weigh 0, so path sums between
  // originals are unchanged.
  seq::Ternarizer<seq::TopologyTree> topo(n);
  for (const Edge& e : edges) topo.link(e.u, e.v, e.w);
  ok &= run("Topology Tree (tern.) zipf", topo.inner(), n, nq, 9);

  // Two high-diameter inputs, where the lockstep climbs' gain grows with
  // height, and (connectivity only) a star: depth 1, where the scalar loop
  // already overlaps its misses.
  const size_t side = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  const size_t grid_n = side * side;
  struct Input {
    const char* name;
    size_t n;
    EdgeList edges;
  };
  const Input deep[] = {
      {"UFO Tree (par) grid-bfs", grid_n,
       weigh(gen::bfs_forest(grid_n, gen::grid_graph(side, side), 23))},
      {"UFO Tree (par) path", n, weigh(gen::path(n))}};
  for (const Input& in : deep) {
    par::UfoTree t(in.n);
    t.batch_link(in.edges);
    ok &= run(in.name, t, in.n, nq, 9);
  }

  std::printf("\n[batch-queries] connectivity throughput, n=%zu, %zu "
              "queries\n", n, nq);
  std::printf("%-26s %8s %12s %12s %12s\n", "structure", "depth(0)",
              "scalar q/s", "batched q/s", "check");
  ok &= run_connectivity("UFO Tree (seq) zipf", ufo, n, nq, 17);
  ok &= run_connectivity("UFO Tree (par) zipf", pufo, n, nq, 17);
  {
    par::UfoTree t(n);
    t.batch_link(gen::star(n));
    ok &= run_connectivity("UFO Tree (par) star", t, n, nq, 29);
  }
  for (const Input& in : deep) {
    par::UfoTree t(in.n);
    t.batch_link(in.edges);
    ok &= run_connectivity(in.name, t, in.n, nq, 29);
  }
  if (!ok) std::printf("MISMATCH: a batched answer differs from scalar\n");
  return ok ? 0 : 1;
}
