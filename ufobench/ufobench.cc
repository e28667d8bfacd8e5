// One process of the benchmark of record: a closed-loop workload run
// against the library's public API with an untimed correctness gate.
//
// A single client repeats rounds of: erase k distinct standing edges (timed),
// re-insert the same k edges (timed), answer one query block (timed), then
// spot-check the round against independent oracles (untimed). One untimed
// warm-up round comes first. The standing structure is bulk-loaded from its
// edge list once per process; that load is the setup sample. The worker
// count is whatever UFOTREE_NUM_THREADS pins.
//
// The loop runs a fixed number of timed rounds, not a fixed time: churn
// slowly degrades the structure (social-churn erase and query times double
// over the first 150 rounds after a bulk load), so a time-bound loop would
// measure a faster build on a more degraded structure.
//
//   ufobench --workload <name> --seed <n> --part <i> --rounds <r>
//            [--trace 0|1] [--quick] [--corrupt none|answer|count]
//            [--spans <path>]
//
// run.py runs several such processes per benchmark run (the part index
// varies the operation stream) and pools their samples. Prints one JSON
// object as its last line: raw latency samples, totals, the operations
// attempted and failed, and with --trace 1 the per-layer metrics. Exits 1
// when any check failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "connectivity/connectivity.h"
#include "core/batch_queries.h"
#include "graph/generators.h"
#include "graph/ref_forest.h"
#include "obs/metrics.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/scheduler.h"
#include "util/random.h"
#include "util/union_find.h"

using namespace ufo;

namespace {

using Clock = std::chrono::steady_clock;
using Conn = conn::GraphConnectivity<par::UfoTree>;
using conn::BatchStatus;

// The standing graphs are fixed; --seed and --part drive the operation
// stream (which edges each batch churns, the query pairs, the path
// weights). A different graph per seed moved memory and erase cost by more
// than the timing noise.
constexpr uint64_t kGraphSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t part = 0;
  uint32_t rounds = 0;
  bool trace = false;
  bool quick = false;
  std::string corrupt = "none";  // self-test: falsify one checked value
  std::string spans;             // where the traced run writes its spans
};

// Sizes of one workload, chosen so that every timed call takes about 10 ms
// or more on a 4-core host (short calls made medians drift between
// identical runs). k is edges per update call, q queries per block.
struct Spec {
  size_t n = 0;
  size_t k = 0;
  size_t q = 0;
};

Spec spec_of(const std::string& w, bool quick) {
  if (w == "social-churn")
    return quick ? Spec{1 << 12, 256, 4096} : Spec{1 << 18, 4096, 200000};
  if (w == "road-closures")  // n is a perfect square
    return quick ? Spec{32 * 32, 64, 2048} : Spec{256 * 256, 1024, 20000};
  if (w == "hub-shatter")
    return quick ? Spec{1 << 10, 128, 4096} : Spec{1 << 16, 8192, 1000000};
  if (w == "forest-churn")
    return quick ? Spec{1 << 12, 256, 2048} : Spec{1 << 18, 512, 15000};
  return {};
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// Latencies and totals of one kind of timed call.
struct Series {
  std::vector<double> ms;
  double total_s = 0;
  double items = 0;
  void add(double s, double n) {
    ms.push_back(s * 1e3);
    total_s += s;
    items += n;
  }
};

// Benchmark-side trace: one span per timed call into a layer (kept in
// memory, written out at the end) plus counts taken at the same call
// boundaries. Off in the end-to-end run.
struct Trace {
  struct Span {
    const char* name;
    double start_s, dur_s;
    uint32_t round;
  };
  bool on = false;
  Clock::time_point epoch = Clock::now();
  std::vector<Span> spans;
  std::map<std::string, double> sum;

  void span(const char* name, Clock::time_point t0, double dur, uint32_t r) {
    if (on)
      spans.push_back(
          {name, std::chrono::duration<double>(t0 - epoch).count(), dur, r});
  }
  void count(const std::string& name, double v) {
    if (on) sum[name] += v;
  }
  double p50_ns(const char* name) const {
    std::vector<double> d;
    for (const Span& s : spans)
      if (std::strcmp(s.name, name) == 0) d.push_back(s.dur_s * 1e9);
    return median(d);
  }
  // chrome://tracing format; each round is one track.
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); ++i)
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i ? "," : "", spans[i].name, spans[i].round,
                   spans[i].start_s * 1e6, spans[i].dur_s * 1e6);
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }
};

// What a workload run reports back to main().
struct Outcome {
  Series erase, insert, query;
  double setup_s = 0;
  uint64_t attempted = 0, failed = 0;
  uint32_t rounds = 0;
  std::map<std::string, double> layer;
};

// Counts operations and failed checks; an operation fails at most once.
struct Gate {
  Outcome* out;
  bool op_ok = true;
  void begin() {
    ++out->attempted;
    op_ok = true;
  }
  void expect(bool ok, const char* what, uint32_t round) {
    if (ok) return;
    if (op_ok) {
      ++out->failed;
      if (out->failed <= 8)
        std::fprintf(stderr, "check failed in round %u: %s\n", round, what);
    }
    op_ok = false;
  }
};

// Runs the warm-up round, then --rounds timed rounds. The library's
// counters restart with the timed rounds, so they exclude the bulk load.
template <class Round>
void loop(const Args& a, Outcome& out, Round&& round) {
  round(0u, false);
  obs::MetricsRegistry::instance().reset();
  while (out.rounds < a.rounds) round(++out.rounds, true);
}

// Moves k fresh uniformly drawn indices of perm to its front (partial
// Fisher-Yates; perm persists so rounds differ).
void draw(std::vector<uint32_t>& perm, size_t k, util::SplitMix64& rng) {
  for (size_t i = 0; i < k; ++i)
    std::swap(perm[i], perm[i + rng.next(perm.size() - i)]);
}

std::vector<core::VertexPair> random_pairs(size_t n, size_t q,
                                           util::SplitMix64& rng) {
  std::vector<core::VertexPair> p(q);
  for (auto& [u, v] : p) {
    u = static_cast<Vertex>(rng.next(n));
    v = static_cast<Vertex>(rng.next(n));
  }
  return p;
}

template <class Tree>
void core_layer(const Tree& t, size_t n, util::SplitMix64& rng,
                std::map<std::string, double>& layer) {
  const size_t sample = std::min<size_t>(n, 4096);
  double hsum = 0, hmax = 0;
  for (size_t i = 0; i < sample; ++i) {
    double h = static_cast<double>(t.height(static_cast<Vertex>(rng.next(n))));
    hsum += h;
    hmax = std::max(hmax, h);
  }
  layer["core.height_mean"] = hsum / static_cast<double>(sample);
  layer["core.height_max"] = hmax;
  auto mb = t.memory_breakdown();
  layer["core.live_clusters"] = static_cast<double>(t.live_clusters());
  layer["core.mem.hot_bytes"] = static_cast<double>(mb.hot);
  layer["core.mem.cold_bytes"] = static_cast<double>(mb.cold);
  layer["core.mem.adjacency_bytes"] = static_cast<double>(mb.adjacency);
  layer["core.mem.children_bytes"] = static_cast<double>(mb.children);
  layer["core.mem.adj_index_bytes"] = static_cast<double>(mb.adj_index);
  layer["core.mem.rake_bytes"] = static_cast<double>(mb.rake);
  layer["core.bytes_per_cluster"] =
      static_cast<double>(mb.total()) /
      static_cast<double>(std::max<size_t>(1, t.live_clusters()));
}

// Copies the library's own counters, per timed round. They are nonzero
// only in the UFO_OBSERVABILITY build that the traced run uses; spans
// nest (conn.search contains conn.promote).
void library_counters(uint32_t rounds, std::map<std::string, double>& layer) {
  static const char* kNames[] = {
      "conn.replacement_scanned", "conn.promotions",
      "conn.search.rounds",       "span.conn.search.ns",
      "span.conn.promote.ns",     "span.par.teardown.ns",
      "span.par.recluster.ns",    "span.par.flush.ns",
      "span.par.edge_insert.ns",  "span.par.edge_delete.ns",
      "sched.steals"};
  auto& reg = obs::MetricsRegistry::instance();
  for (const char* name : kNames) {
    obs::Counter* c = reg.find_counter(name);
    layer[std::string("lib.") + name] =
        c ? static_cast<double>(c->total()) / std::max<uint32_t>(rounds, 1)
          : 0.0;
  }
}

// The standing general graph of a connectivity workload.
EdgeList conn_edges(const std::string& w, size_t n) {
  if (w == "social-churn") return gen::social_graph(n, 4, kGraphSeed);
  if (w == "road-closures") {
    size_t side = 1;
    while (side * side < n) ++side;
    return gen::grid_graph(side, side);
  }
  // hub-shatter: a star plus one leaf-to-leaf edge on about half the
  // leaves, so some spoke cuts are replaced through a leaf and the rest
  // leave an isolated leaf behind.
  EdgeList e = gen::star(n);
  std::vector<uint32_t> leaves = util::random_permutation(n - 1, kGraphSeed);
  for (size_t i = 0; i + 1 < leaves.size() / 2; i += 2)
    e.push_back({leaves[i] + 1, leaves[i + 1] + 1, 1});
  return e;
}

void run_conn(const Spec& s, const Args& a, util::SplitMix64& rng,
              Trace& tr, Outcome& out) {
  const size_t n = s.n;
  const EdgeList edges = conn_edges(a.workload, n);
  const size_t m = edges.size();

  // Oracle for the standing graph, which every round returns to.
  util::UnionFind uf(n);
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  const size_t base_comps = uf.num_components();
  std::vector<Vertex> label(n);
  for (Vertex v = 0; v < n; ++v) label[v] = uf.find(v);

  Gate gate{&out};
  Conn g(n);
  gate.begin();
  auto t0 = Clock::now();
  BatchStatus st = g.batch_insert(edges);
  out.setup_s = secs_since(t0);
  gate.expect(st == BatchStatus::kOk && g.num_edges() == m &&
                  g.num_components() == base_comps,
              "bulk load", 0);

  std::vector<uint32_t> perm = util::random_permutation(m, rng.next());
  const std::vector<core::VertexPair> pairs = random_pairs(n, s.q, rng);
  std::vector<uint8_t> gone(m, 0);
  EdgeList batch(s.k);

  loop(a, out, [&](uint32_t r, bool timed) {
    draw(perm, s.k, rng);
    for (size_t i = 0; i < s.k; ++i) {
      batch[i] = edges[perm[i]];
      gone[perm[i]] = 1;
    }
    const bool corrupt_round = timed && r == 1;
    // Oracle component count with the batch erased.
    uf.reset();
    for (size_t i = 0; i < m; ++i)
      if (!gone[i]) uf.unite(edges[i].u, edges[i].v);
    for (size_t i = 0; i < s.k; ++i) gone[perm[i]] = 0;
    size_t want_comps = uf.num_components();
    if (corrupt_round && a.corrupt == "count") ++want_comps;

    size_t cut = 0;
    if (tr.on)
      for (const Edge& e : batch) cut += g.forest().has_edge(e.u, e.v);
    const size_t comps0 = g.num_components();

    gate.begin();
    auto t0 = Clock::now();
    BatchStatus st = g.batch_erase(batch);
    double d = secs_since(t0);
    if (timed) {
      out.erase.add(d, static_cast<double>(s.k));
      tr.span("conn.batch_erase", t0, d, r);
      tr.count("cut", static_cast<double>(cut));
      tr.count("replaced", static_cast<double>(cut) -
                               static_cast<double>(g.num_components() - comps0));
    }
    gate.expect(st == BatchStatus::kOk, "batch_erase status", r);
    gate.expect(g.num_edges() == m - s.k, "edge count after erase", r);
    gate.expect(g.num_components() == want_comps,
                "component count after erase", r);

    const size_t tree0 = g.num_tree_edges();
    gate.begin();
    t0 = Clock::now();
    st = g.batch_insert(batch);
    d = secs_since(t0);
    if (timed) {
      out.insert.add(d, static_cast<double>(s.k));
      tr.span("conn.batch_insert", t0, d, r);
      tr.count("insert_tree", static_cast<double>(g.num_tree_edges() - tree0));
    }
    gate.expect(st == BatchStatus::kOk, "batch_insert status", r);
    gate.expect(g.num_edges() == m, "edge count after insert", r);
    gate.expect(g.num_components() == base_comps,
                "component count after insert", r);

    gate.begin();
    t0 = Clock::now();
    std::vector<uint8_t> ans = core::batch_connected(g.forest(), pairs);
    d = secs_since(t0);
    if (timed) {
      out.query.add(d, static_cast<double>(s.q));
      tr.span("core.batch_connected", t0, d, r);
    }
    if (corrupt_round && a.corrupt == "answer") ans[0] ^= 1;
    for (int i = 0; i < 256; ++i) {
      size_t j = i == 0 ? 0 : rng.next(s.q);
      bool want = label[pairs[j].first] == label[pairs[j].second];
      gate.expect(ans[j] == want, "connected answer", r);
    }
  });

  gate.begin();
  gate.expect(g.validate().ok(), "GraphConnectivity::validate", 0);
  gate.begin();
  gate.expect(g.forest().validate().ok(), "par::UfoTree::validate", 0);

  if (!tr.on) return;
  auto& L = out.layer;
  const double R = out.rounds;
  const double cuts = tr.sum["cut"];
  L["conn.erase.ns"] = tr.p50_ns("conn.batch_erase");
  L["conn.insert.ns"] = tr.p50_ns("conn.batch_insert");
  L["conn.cut_edges"] = cuts / R;
  L["conn.replaced"] = tr.sum["replaced"] / R;
  L["conn.replaced_ratio"] = cuts > 0 ? tr.sum["replaced"] / cuts : 0;
  L["conn.erase_ns_per_cut"] = cuts > 0 ? out.erase.total_s * 1e9 / cuts : 0;
  L["conn.insert_tree_edges"] = tr.sum["insert_tree"] / R;
  L["conn.memory_bytes"] =
      static_cast<double>(g.memory_bytes() - g.forest().memory_bytes());
  for (const char* name : {"par.batch_cut.ns", "par.batch_link.ns",
                           "par.cut_ns_per_edge", "par.link_ns_per_edge"})
    L[name] = 0;  // the connectivity layer makes these calls internally
  L["core.query.ns"] = out.query.total_s * 1e9 / out.query.items;
  core_layer(g.forest(), n, rng, L);
}

void run_forest(const Spec& s, const Args& a, util::SplitMix64& rng,
                Trace& tr, Outcome& out) {
  EdgeList edges = gen::random_unbounded(s.n, kGraphSeed);
  for (Edge& e : edges) e.w = 1 + static_cast<Weight>(rng.next(1000));
  const size_t m = edges.size();

  // Oracles for the standing tree: RefForest, and parent/depth/prefix sums
  // (random_unbounded attaches vertex e.v below a smaller id e.u) that
  // answer a whole block in O(depth) per query. The latter is checked
  // against RefForest here and again after the loop.
  RefForest ref(s.n);
  for (const Edge& e : edges) ref.link(e.u, e.v, e.w);
  std::vector<Vertex> parent(s.n, 0);
  std::vector<uint32_t> depth(s.n, 0);
  std::vector<Weight> prefix(s.n, 0);
  for (const Edge& e : edges) {
    parent[e.v] = e.u;
    depth[e.v] = depth[e.u] + 1;
    prefix[e.v] = prefix[e.u] + e.w;
  }
  auto oracle_sum = [&](Vertex u, Vertex v) {
    Vertex x = u, y = v;
    while (depth[x] > depth[y]) x = parent[x];
    while (depth[y] > depth[x]) y = parent[y];
    while (x != y) x = parent[x], y = parent[y];
    return prefix[u] + prefix[v] - 2 * prefix[x];
  };

  Gate gate{&out};
  par::UfoTree t(s.n);
  auto t0 = Clock::now();
  t.batch_link(edges);
  out.setup_s = secs_since(t0);

  std::vector<uint32_t> perm = util::random_permutation(m, rng.next());
  const std::vector<core::VertexPair> pairs = random_pairs(s.n, s.q, rng);
  std::vector<Weight> want(s.q);
  for (size_t i = 0; i < s.q; ++i)
    want[i] = oracle_sum(pairs[i].first, pairs[i].second);
  auto check_ref = [&](const char* what) {
    for (int i = 0; i < 4; ++i) {
      size_t j = rng.next(s.q);
      gate.begin();
      gate.expect(ref.path_sum(pairs[j].first, pairs[j].second) == want[j] &&
                      t.path_sum(pairs[j].first, pairs[j].second) == want[j],
                  what, 0);
    }
  };
  check_ref("path_sum after bulk load against RefForest");
  EdgeList batch(s.k);

  loop(a, out, [&](uint32_t r, bool timed) {
    draw(perm, s.k, rng);
    for (size_t i = 0; i < s.k; ++i) batch[i] = edges[perm[i]];
    const bool corrupt_round = timed && r == 1;

    gate.begin();
    auto t0 = Clock::now();
    t.batch_cut(batch);
    double d = secs_since(t0);
    if (timed) {
      out.erase.add(d, static_cast<double>(s.k));
      tr.span("par.batch_cut", t0, d, r);
    }
    // In a tree, k absent edges whose endpoints are disconnected leave
    // exactly k + 1 components.
    size_t present = corrupt_round && a.corrupt == "count" ? 1 : 0;
    for (const Edge& e : batch) present += t.has_edge(e.u, e.v);
    gate.expect(present == 0, "edge count after batch_cut", r);
    for (int i = 0; i < 256; ++i) {
      const Edge& e = batch[rng.next(s.k)];
      gate.expect(!t.connected(e.u, e.v), "component count after cut", r);
    }

    gate.begin();
    t0 = Clock::now();
    t.batch_link(batch);
    d = secs_since(t0);
    if (timed) {
      out.insert.add(d, static_cast<double>(s.k));
      tr.span("par.batch_link", t0, d, r);
    }
    present = 0;
    for (const Edge& e : batch) present += t.has_edge(e.u, e.v);
    gate.expect(present == s.k, "edge count after batch_link", r);
    for (int i = 0; i < 256; ++i) {
      const Edge& e = batch[rng.next(s.k)];
      gate.expect(t.connected(e.u, e.v), "component count after link", r);
    }

    gate.begin();
    t0 = Clock::now();
    std::vector<Weight> ans = core::batch_path_sum(t, pairs);
    d = secs_since(t0);
    if (timed) {
      out.query.add(d, static_cast<double>(s.q));
      tr.span("core.batch_path_sum", t0, d, r);
    }
    if (corrupt_round && a.corrupt == "answer") ans[0] += 1;
    for (int i = 0; i < 1024; ++i) {
      size_t j = i == 0 ? 0 : rng.next(s.q);
      gate.expect(ans[j] == want[j], "path_sum answer", r);
    }
  });

  gate.begin();
  gate.expect(t.validate().ok(), "par::UfoTree::validate", 0);
  check_ref("path_sum after the loop against RefForest");

  if (!tr.on) return;
  auto& L = out.layer;
  for (const char* name :
       {"conn.erase.ns", "conn.insert.ns", "conn.cut_edges", "conn.replaced",
        "conn.replaced_ratio", "conn.erase_ns_per_cut",
        "conn.insert_tree_edges", "conn.memory_bytes"})
    L[name] = 0;  // no connectivity layer on this workload
  L["par.batch_cut.ns"] = tr.p50_ns("par.batch_cut");
  L["par.batch_link.ns"] = tr.p50_ns("par.batch_link");
  L["par.cut_ns_per_edge"] = out.erase.total_s * 1e9 / out.erase.items;
  L["par.link_ns_per_edge"] = out.insert.total_s * 1e9 / out.insert.items;
  L["core.query.ns"] = out.query.total_s * 1e9 / out.query.items;
  core_layer(t, s.n, rng, L);
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    if (f == "--quick") {
      a->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (f == "--workload") a->workload = v;
    else if (f == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (f == "--part") a->part = std::strtoull(v.c_str(), nullptr, 10);
    else if (f == "--rounds") a->rounds = std::atoi(v.c_str());
    else if (f == "--trace") a->trace = v == "1";
    else if (f == "--corrupt") a->corrupt = v;
    else if (f == "--spans") a->spans = v;
    else return false;
  }
  return spec_of(a->workload, a->quick).n != 0 && a->rounds > 0 &&
         (a->corrupt == "none" || a->corrupt == "answer" ||
          a->corrupt == "count");
}

void print_list(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i)
    std::printf("%s%.17g", i ? "," : "", v[i]);
  std::printf("],");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ufobench --workload social-churn|road-closures|"
                 "hub-shatter|forest-churn --seed N --part I --rounds R "
                 "[--trace 0|1] [--quick] [--corrupt none|answer|count] "
                 "[--spans PATH]\n");
    return 2;
  }
  const Spec s = spec_of(a.workload, a.quick);
  util::SplitMix64 rng(util::hash64(a.seed) ^ util::hash64(~a.part));
  Trace tr;
  tr.on = a.trace;
  Outcome out;
  if (a.workload == "forest-churn")
    run_forest(s, a, rng, tr, out);
  else
    run_conn(s, a, rng, tr, out);
  if (a.trace) {
    library_counters(out.rounds, out.layer);
    if (!a.spans.empty()) tr.write(a.spans);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\":\"%s\",\"workers\":%d,\"rounds\":%u,"
              "\"attempted\":%llu,\"failed\":%llu,",
              a.workload.c_str(), par::num_workers(), out.rounds,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_list("erase_ms", out.erase.ms);
  print_list("insert_ms", out.insert.ms);
  print_list("query_ms", out.query.ms);
  std::printf("\"update_edges\":%.17g,\"queries\":%.17g,\"setup_s\":%.17g,"
              "\"peak_rss_mb\":%.17g,\"layer\":{",
              out.erase.items + out.insert.items, out.query.items, out.setup_s,
              static_cast<double>(ru.ru_maxrss) / 1024.0);
  const char* sep = "";
  for (const auto& [k, v] : out.layer) {
    std::printf("%s\"%s\":%.17g", sep, k.c_str(), v);
    sep = ",";
  }
  std::printf("}}\n");
  return out.failed == 0 ? 0 : 1;
}
