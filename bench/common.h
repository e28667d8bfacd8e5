// Shared benchmark harness: flag parsing, row printing, the
// build-then-destroy drivers used by the update-speed experiments, and the
// machine-readable sidecar writer (--json).
//
// Every binary accepts:
//   --n=<vertices>   input size (default per benchmark)
//   --batch=<k>      batch size (default per benchmark)
//   --quick          shrink everything for a smoke run
//   --json=<path>    also write a JSON sidecar (schema "ufo-bench/1")
//   --trace=<path>   write a chrome://tracing file of one measured run
//                    (events only appear in -DUFO_OBSERVABILITY=ON builds)
//   --checkpoint=<path>  benches that support it also time a durable
//                    snapshot save + load of a standing tree at <path>
//                    (see src/recovery/snapshot.h)
// Times are wall-clock seconds on this host; the paper's claims reproduced
// here are about *relative* shape, not absolute numbers (see DESIGN.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/forest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/timer.h"

namespace ufo::bench {

struct Options {
  size_t n = 0;          // 0 = use benchmark default
  size_t batch = 0;      // 0 = use benchmark default
  bool quick = false;
  std::string json;      // sidecar path; empty = no sidecar
  std::string trace;     // chrome://tracing path; empty = no trace
  std::string checkpoint;  // snapshot save/load timing path; empty = off
};

inline Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0)
      opt.n = std::strtoul(argv[i] + 4, nullptr, 10);
    else if (std::strncmp(argv[i], "--batch=", 8) == 0)
      opt.batch = std::strtoul(argv[i] + 8, nullptr, 10);
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      opt.json = argv[i] + 7;
    else if (std::strncmp(argv[i], "--trace=", 8) == 0)
      opt.trace = argv[i] + 8;
    else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0)
      opt.checkpoint = argv[i] + 13;
    else if (std::strcmp(argv[i], "--quick") == 0)
      opt.quick = true;
  }
  return opt;
}

// Make sure the headline counters exist in every snapshot, even when a run
// never exercised them (width-1 pools never steal; uncontended tables never
// retry a CAS). A zero row distinguishes "didn't happen" from "not
// instrumented". No-ops when observability is compiled out.
inline void touch_headline_counters() {
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  auto& reg = obs::MetricsRegistry::instance();
  for (const char* name :
       {"sched.tasks", "sched.steals", "sched.failed_steals",
        "hash.cas_retries", "par.teardown.rounds", "par.teardown.doomed",
        "par.teardown.survivors"})
    reg.counter(name).add(0);
#endif
}

// Whole file as a string, or empty on any error. Used by sweep parents to
// splice child-process sidecars into their own.
inline std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

// Sidecar schema "ufo-bench/1" (documented in BENCH.md):
//   { "schema": "ufo-bench/1", "bench": <name>,
//     "config": <object>, "rows": <array>, "metrics": <registry snapshot> }
// `config_json` and `rows_json` are pre-serialized (the bench assembles
// them with obs::JsonWriter); `metrics` is this process's registry —
// empty-but-valid in instrumentation-off builds.
// `extra_key`/`extra_json` splice one optional pre-serialized top-level
// entry into the sidecar (e.g. the "checkpoint" timing block); consumers
// ignore top-level keys they don't know.
inline bool write_bench_json(const std::string& path, const char* bench,
                             const std::string& config_json,
                             const std::string& rows_json,
                             const std::string& extra_key = {},
                             const std::string& extra_json = {}) {
  touch_headline_counters();
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ufo-bench/1");
  w.key("bench");
  w.value(bench);
  w.key("config");
  w.raw(config_json);
  w.key("rows");
  w.raw(rows_json);
  if (!extra_key.empty() && !extra_json.empty()) {
    w.key(extra_key.c_str());
    w.raw(extra_json);
  }
  w.key("metrics");
  w.raw(obs::MetricsRegistry::instance().to_json());
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string& s = w.str();
  size_t written = std::fwrite(s.data(), 1, s.size(), f);
  return (std::fclose(f) == 0) && written == s.size();
}

inline void print_header(const char* title, const char* col0,
                         const std::vector<std::string>& cols) {
  std::printf("\n== %s ==\n%-26s", title, col0);
  for (const auto& c : cols) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

inline void print_cell(double seconds) {
  if (seconds < 0)
    std::printf(" %12s", "n/a");
  else
    std::printf(" %12.4f", seconds);
}

// True when Tree exposes the exact storage accounting call
// (core::UfoCore::memory_breakdown); baselines without it silently skip the
// memory capture below.
template <class Tree, class = void>
inline constexpr bool kHasMemoryBreakdown = false;
template <class Tree>
inline constexpr bool kHasMemoryBreakdown<
    Tree, std::void_t<decltype(std::declval<const Tree&>().memory_breakdown())>>
    = true;

// Exact storage accounting captured from a standing tree, exported into the
// "ufo-bench/1" sidecar ("memory" on par child blobs, "seq_memory" on rows)
// and summarized as bytes-per-cluster in BENCH.md.
struct MemReport {
  bool valid = false;
  size_t memory_bytes = 0;
  size_t clusters = 0;  // live cluster records, not bytes
  size_t hot = 0, cold = 0, adjacency = 0, children = 0, adj_index = 0,
         rake = 0, other = 0;

  double bytes_per_cluster() const {
    return clusters ? static_cast<double>(memory_bytes) / clusters : 0.0;
  }

  template <class Tree>
  void capture(const Tree& t) {
    if constexpr (kHasMemoryBreakdown<Tree>) {
      auto br = t.memory_breakdown();
      valid = true;
      memory_bytes = br.total();
      clusters = br.clusters;
      hot = br.hot;
      cold = br.cold;
      adjacency = br.adjacency;
      children = br.children;
      adj_index = br.adj_index;
      rake = br.rake;
      other = br.other;
    }
  }

  void append_json(obs::JsonWriter& w, const char* key) const {
    if (!valid) return;
    w.key(key);
    w.begin_object();
    w.key("memory_bytes");
    w.value(static_cast<uint64_t>(memory_bytes));
    w.key("clusters");
    w.value(static_cast<uint64_t>(clusters));
    w.key("bytes_per_cluster");
    w.value(bytes_per_cluster());
    w.key("pools");
    w.begin_object();
    w.key("hot");
    w.value(static_cast<uint64_t>(hot));
    w.key("cold");
    w.value(static_cast<uint64_t>(cold));
    w.key("adjacency");
    w.value(static_cast<uint64_t>(adjacency));
    w.key("children");
    w.value(static_cast<uint64_t>(children));
    w.key("adj_index");
    w.value(static_cast<uint64_t>(adj_index));
    w.key("rake");
    w.value(static_cast<uint64_t>(rake));
    w.key("other");
    w.value(static_cast<uint64_t>(other));
    w.end_object();
    w.end_object();
  }
};

// Total time to insert all edges (random order) then delete all edges
// (another random order) — the paper's update-speed metric (Fig. 5).
template <class Tree>
double build_destroy_seconds(size_t n, const EdgeList& edges, uint64_t seed) {
  EdgeList ins = edges;
  EdgeList del = edges;
  util::shuffle(ins, seed);
  util::shuffle(del, seed + 1);
  Tree t(n);
  util::Timer timer;
  for (const Edge& e : ins) t.link(e.u, e.v, e.w);
  for (const Edge& e : del) t.cut(e.u, e.v);
  return timer.elapsed();
}

// Small-batch regime: build the full tree once (untimed), then time
// `rounds` rounds of (batch_cut of k random tree edges, batch_link of the
// same k back). This isolates the per-batch cost on a standing structure —
// the regime where whole-component rebuilds blow up and path-granular
// affected sets must win.
template <class Tree>
double small_batch_rounds_seconds(size_t n, const EdgeList& edges, size_t k,
                                  int rounds, uint64_t seed,
                                  std::vector<double>* round_seconds = nullptr,
                                  MemReport* mem = nullptr) {
  Tree t(n);
  t.batch_link(edges);
  if (k > edges.size()) k = edges.size();
  EdgeList pool = edges;
  util::SplitMix64 rng(seed);
  util::Timer timer;
  for (int r = 0; r < rounds; ++r) {
    // Partial Fisher-Yates: k distinct random tree edges per round.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(rng.next(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    std::vector<Edge> batch(pool.begin(), pool.begin() + k);
    double s = 0;
    {
      util::ScopedTimer st(s);
      t.batch_cut(batch);
      t.batch_link(batch);
    }
    if (round_seconds) round_seconds->push_back(s);
  }
  double total = timer.elapsed();
  if (mem) mem->capture(t);  // standing structure, after the churn
  return total;
}

// Batched variant (Fig. 8): edges are split into batches of size k. With
// `phase_seconds`, the build and destroy halves land as two entries.
template <class Tree>
double batch_build_destroy_seconds(size_t n, const EdgeList& edges, size_t k,
                                   uint64_t seed,
                                   std::vector<double>* phase_seconds = nullptr,
                                   MemReport* mem = nullptr) {
  EdgeList ins = edges;
  EdgeList del = edges;
  util::shuffle(ins, seed);
  util::shuffle(del, seed + 1);
  Tree t(n);
  double build_s = 0, destroy_s = 0;
  util::Timer timer;
  {
    util::ScopedTimer st(build_s);
    for (size_t i = 0; i < ins.size(); i += k) {
      std::vector<Edge> batch(ins.begin() + i,
                              ins.begin() + std::min(ins.size(), i + k));
      t.batch_link(batch);
    }
  }
  if (mem) mem->capture(t);  // peak: fully built, pre-teardown
  {
    util::ScopedTimer st(destroy_s);
    for (size_t i = 0; i < del.size(); i += k) {
      std::vector<Edge> batch(del.begin() + i,
                              del.begin() + std::min(del.size(), i + k));
      t.batch_cut(batch);
    }
  }
  if (phase_seconds) {
    phase_seconds->push_back(build_s);
    phase_seconds->push_back(destroy_s);
  }
  return timer.elapsed();
}

}  // namespace ufo::bench
