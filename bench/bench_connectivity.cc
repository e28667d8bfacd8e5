// Batch-size sweep for the general-graph connectivity subsystem (figure
// style, cf. the Fig. 8 batched-update experiments): insert every edge of
// the input graph in waves of k, then erase them all in waves of k, for
// k = 1 (single-edge API) through 4096. Inputs are the two real-world
// stand-ins: a grid (road-like, high diameter, ~half the edges become
// non-tree) and a preferential-attachment social graph (low diameter).
//
// --erase-heavy switches to the replacement-search stress mode: build each
// input once, then time rounds of (batch_erase of k edges, untimed
// re-insert) on a standing graph. The inputs are chosen to shatter: a star
// (every cut batch makes up to k+1 pieces around one huge hub piece), a
// grid (long chains of pieces), and a power-law social graph (skewed piece
// sizes). The search scans only the non-largest pieces, so the star's hub
// is never rescanned.
//
//   ./bench_connectivity [--n=<vertices>] [--batch=<only this k>] [--quick]
//                        [--erase-heavy] [--json=<path>]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "connectivity/connectivity.h"
#include "graph/generators.h"
#include "seq/ufo_tree.h"

using namespace ufo;

namespace {

struct Input {
  std::string name;
  size_t n;
  EdgeList edges;
};

// Insert all edges in waves of k, then erase them in waves of k (different
// shuffle). k == 0 means the single-edge API (no batching layer at all).
std::pair<double, double> sweep_once(const Input& in, size_t k,
                                     uint64_t seed) {
  EdgeList ins = in.edges;
  EdgeList del = in.edges;
  util::shuffle(ins, seed);
  util::shuffle(del, seed + 1);
  conn::GraphConnectivity<seq::UfoTree> g(in.n);
  util::Timer timer;
  if (k == 0) {
    for (const Edge& e : ins) g.insert(e.u, e.v, e.w);
  } else {
    for (size_t i = 0; i < ins.size(); i += k) {
      EdgeList batch(ins.begin() + i,
                     ins.begin() + std::min(ins.size(), i + k));
      g.batch_insert(batch);
    }
  }
  double insert_s = timer.elapsed();
  if (g.num_edges() != in.edges.size()) {
    std::fprintf(stderr, "%s k=%zu: edge count mismatch (%zu vs %zu)\n",
                 in.name.c_str(), k, g.num_edges(), in.edges.size());
    std::exit(1);
  }
  timer.reset();
  if (k == 0) {
    for (const Edge& e : del) g.erase(e.u, e.v);
  } else {
    for (size_t i = 0; i < del.size(); i += k) {
      EdgeList batch(del.begin() + i,
                     del.begin() + std::min(del.size(), i + k));
      g.batch_erase(batch);
    }
  }
  double erase_s = timer.elapsed();
  if (g.num_edges() != 0 || g.num_components() != in.n) {
    std::fprintf(stderr, "%s k=%zu: teardown incomplete\n", in.name.c_str(),
                 k);
    std::exit(1);
  }
  return {insert_s, erase_s};
}

// Erase-heavy: on a standing graph, `rounds` rounds of batch_erase of k
// random edges (timed) followed by re-inserting the same k (untimed), so
// every round hits a fully-built structure and the replacement search —
// not the insert path — dominates the measurement. Round -1 is an untimed
// warm-up: it pays the search's one-time pooled-state allocation (label
// table, scratch vectors — first-touch page faults scale with n) so the
// timed rounds measure steady state, which is what a standing service sees.
// Returns total erase seconds; *erased_total counts the edges actually
// removed, *layer_bytes_per_vertex the connectivity layer's own footprint
// (memory_bytes() minus the spanning forest's) per vertex after the build.
double erase_heavy_seconds(const Input& in, size_t k, int rounds,
                           uint64_t seed, size_t* erased_total,
                           double* layer_bytes_per_vertex) {
  conn::GraphConnectivity<seq::UfoTree> g(in.n);
  g.batch_insert(in.edges);
  *layer_bytes_per_vertex =
      static_cast<double>(g.memory_bytes() - g.forest().memory_bytes()) /
      static_cast<double>(in.n);
  if (k > in.edges.size()) k = in.edges.size();
  EdgeList pool = in.edges;
  util::SplitMix64 rng(seed);
  double total = 0;
  *erased_total = 0;
  for (int r = -1; r < rounds; ++r) {
    // Partial Fisher-Yates: k distinct random edges per round.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(rng.next(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    EdgeList batch(pool.begin(), pool.begin() + static_cast<ptrdiff_t>(k));
    size_t before = g.num_edges();
    util::Timer timer;
    g.batch_erase(batch);
    if (r >= 0) {
      total += timer.elapsed();
      *erased_total += before - g.num_edges();
    }
    g.batch_insert(batch);
    if (g.num_edges() != in.edges.size()) {
      std::fprintf(stderr, "%s k=%zu: restore drift (%zu vs %zu)\n",
                   in.name.c_str(), k, g.num_edges(), in.edges.size());
      std::exit(1);
    }
  }
  return total;
}

int run_erase_heavy(const bench::Options& opt) {
  // Defaults sized so the full sweep finishes in minutes; --n scales the
  // sustained-throughput regime (BENCH.md records an n=10M social row).
  size_t n = opt.n ? opt.n : (opt.quick ? 1 << 10 : 1 << 14);
  int rounds = opt.quick ? 3 : 6;

  // At --n >= 1M the sweep switches to the sustained-throughput regime:
  // social graph only (the star/grid shatter microbenchmarks live at the
  // default size) and larger waves, the BENCH.md n=10M row.
  bool sustained = opt.n >= (size_t{1} << 20);
  size_t side = 1;
  while ((side + 1) * (side + 1) <= n) ++side;
  std::vector<Input> inputs;
  if (!sustained) {
    inputs.push_back({"star", n, gen::star(n)});
    inputs.push_back({"grid", side * side, gen::grid_graph(side, side)});
  }
  inputs.push_back({"social", n, gen::social_graph(n, 4, 11)});

  std::vector<size_t> ks = {16, 64, 256, 1024, 4096};
  if (sustained) ks = {1024, 16384, 131072};
  if (opt.batch) ks = {opt.batch};

  obs::JsonWriter rows;
  rows.begin_array();
  for (const Input& in : inputs) {
    std::printf(
        "\n== erase-heavy replacement search: %s (n=%zu, m=%zu, rounds=%d) "
        "==\n",
        in.name.c_str(), in.n, in.edges.size(), rounds);
    std::printf("%-12s %12s %14s %14s\n", "batch", "erase_s", "Medges/s",
                "conn_B/vertex");
    for (size_t k : ks) {
      if (k > in.edges.size()) continue;
      size_t edges = 0;
      double bytes_per_vertex = 0;
      double secs =
          erase_heavy_seconds(in, k, rounds, 42, &edges, &bytes_per_vertex);
      double tp = static_cast<double>(edges) / 1e6 / secs;
      std::printf("%-12zu %12.4f %14.3f %14.1f\n", k, secs, tp,
                  bytes_per_vertex);
      std::fflush(stdout);
      rows.begin_object();
      rows.key("input");
      rows.value(in.name);
      rows.key("n");
      rows.value(static_cast<uint64_t>(in.n));
      rows.key("k");
      rows.value(static_cast<uint64_t>(k));
      rows.key("rounds");
      rows.value(int64_t{rounds});
      rows.key("seconds");
      rows.value(secs);
      rows.key("edges_erased");
      rows.value(static_cast<uint64_t>(edges));
      rows.key("medges_per_s");
      rows.value(tp);
      rows.key("conn_bytes_per_vertex");
      rows.value(bytes_per_vertex);
      rows.end_object();
    }
  }
  rows.end_array();

  if (!opt.json.empty()) {
    obs::JsonWriter cfg;
    cfg.begin_object();
    cfg.key("mode");
    cfg.value("erase-heavy");
    cfg.key("n");
    cfg.value(static_cast<uint64_t>(n));
    cfg.key("rounds");
    cfg.value(int64_t{rounds});
    cfg.key("quick");
    cfg.value(opt.quick);
    cfg.key("workers");
    cfg.value(static_cast<int64_t>(par::num_workers()));
    cfg.end_object();
    if (!bench::write_bench_json(opt.json, "bench_connectivity", cfg.str(),
                                 rows.str()))
      std::fprintf(stderr, "failed to write %s\n", opt.json.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse(argc, argv);
  bool erase_heavy = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--erase-heavy") == 0) erase_heavy = true;
  if (erase_heavy) return run_erase_heavy(opt);

  // Single-edge rows pay O(min split side) per tree-edge deletion, so the
  // default stays moderate; use --n to sweep larger graphs (batched rows
  // scale fine).
  size_t n = opt.n ? opt.n : (opt.quick ? 1 << 10 : 1 << 12);

  size_t side = 1;
  while ((side + 1) * (side + 1) <= n) ++side;
  std::vector<Input> inputs;
  inputs.push_back({"grid", side * side, gen::grid_graph(side, side)});
  inputs.push_back({"social", n, gen::social_graph(n, 4, 11)});

  std::vector<size_t> ks = {0, 1, 16, 64, 256, 1024, 4096};
  if (opt.batch) ks = {opt.batch};

  for (const Input& in : inputs) {
    std::printf("\n== connectivity batch sweep: %s (n=%zu, m=%zu) ==\n",
                in.name.c_str(), in.n, in.edges.size());
    std::printf("%-12s %12s %12s %14s %14s\n", "batch", "insert_s", "erase_s",
                "ins_Medges/s", "del_Medges/s");
    for (size_t k : ks) {
      auto [ins_s, del_s] = sweep_once(in, k, 42);
      double m = static_cast<double>(in.edges.size()) / 1e6;
      std::printf("%-12s %12.4f %12.4f %14.3f %14.3f\n",
                  k == 0 ? "single" : std::to_string(k).c_str(), ins_s, del_s,
                  m / ins_s, m / del_s);
    }
  }
  return 0;
}
