// Low-overhead runtime counters and histograms for the UFO-tree library.
//
// Design (the psac/parlay style of production telemetry):
//   * Sharded slots. Every metric owns kShards cache-line-padded slots;
//     worker w writes slot w. The hot path is a thread-local read (the
//     worker id), one padded-line relaxed load and relaxed store — no
//     atomic RMW, no contention, no false sharing. Totals are aggregated
//     on read (snapshot/export time), never on write.
//   * Exactness. The fork-join pool gives every worker (including the
//     main thread, slot 0) a distinct id, so slot writes are single-owner
//     and totals are exact whenever num_workers() <= kShards. Workers
//     beyond kShards (and external non-pool threads, which share id 0
//     with the main thread) fall back to a relaxed fetch_add so counts
//     stay exact — only the zero-RMW fast path is lost.
//   * Compile-time gating. The UFO_STAT / UFO_STAT_HIST / UFO_SPAN macros
//     compile to nothing unless the library is built with
//     -DUFO_OBSERVABILITY=ON (CMake option). The classes below are always
//     compiled, so tools and tests can drive them directly in any build;
//     only the hot-path instrumentation vanishes.
//
// Metric naming scheme: dotted lower-case path, `<layer>.<subsystem>.<what>`
// (e.g. `par.teardown.doomed`, `sched.steals`, `hash.cas_retries`).
// Spans named S export `span.S.ns` and `span.S.count` counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ufo::par {
// Defined in parallel/scheduler.cc; forward-declared to keep this header
// includable from the scheduler itself without a cycle.
int worker_id();
}  // namespace ufo::par

namespace ufo::obs {

inline constexpr size_t kShards = 64;  // power of two

struct alignas(64) CounterShard {
  std::atomic<int64_t> v{0};
};
static_assert(sizeof(CounterShard) == 64, "one cache line per shard");

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(int64_t delta) {
    size_t w = static_cast<size_t>(par::worker_id());
    if (w < kShards) {
      // Single-owner slot: relaxed load + store compile to plain moves.
      auto& s = shards_[w].v;
      s.store(s.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
    } else {
      shards_[w & (kShards - 1)].v.fetch_add(delta,
                                             std::memory_order_relaxed);
    }
  }

  int64_t total() const {
    int64_t t = 0;
    for (const auto& s : shards_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }

  // Per-worker values, trailing zero shards trimmed (shard i = worker i).
  std::vector<int64_t> per_shard() const {
    std::vector<int64_t> out;
    for (const auto& s : shards_)
      out.push_back(s.v.load(std::memory_order_relaxed));
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  CounterShard shards_[kShards];
};

// Power-of-two-bucketed histogram: bucket b counts values v with
// bit_width(v) == b (bucket 0 holds v <= 0). Tracks count/sum/max too.
inline constexpr size_t kHistBuckets = 48;

struct alignas(64) HistShard {
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> max{0};
  std::atomic<int64_t> buckets[kHistBuckets] = {};
};

class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t bucket_of(int64_t v) {
    if (v <= 0) return 0;
    size_t b = std::bit_width(static_cast<uint64_t>(v));
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }
  // Lower bound of bucket b's value range.
  static int64_t bucket_floor(size_t b) {
    return b == 0 ? 0 : int64_t{1} << (b - 1);
  }

  void record(int64_t v) {
    size_t w = static_cast<size_t>(par::worker_id());
    bool owned = w < kShards;
    HistShard& s = shards_[w & (kShards - 1)];
    bump(s.count, 1, owned);
    bump(s.sum, v, owned);
    bump(s.buckets[bucket_of(v)], 1, owned);
    if (owned) {
      if (v > s.max.load(std::memory_order_relaxed))
        s.max.store(v, std::memory_order_relaxed);
    } else {
      int64_t cur = s.max.load(std::memory_order_relaxed);
      while (v > cur &&
             !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
    }
  }

  int64_t count() const { return agg(&HistShard::count); }
  int64_t sum() const { return agg(&HistShard::sum); }
  int64_t max() const {
    int64_t m = 0;
    for (const auto& s : shards_)
      m = std::max(m, s.max.load(std::memory_order_relaxed));
    return m;
  }
  int64_t bucket_count(size_t b) const {
    int64_t t = 0;
    for (const auto& s : shards_)
      t += s.buckets[b].load(std::memory_order_relaxed);
    return t;
  }

  void reset() {
    for (auto& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

  const std::string& name() const { return name_; }

 private:
  static void bump(std::atomic<int64_t>& a, int64_t d, bool owned) {
    if (owned)
      a.store(a.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
    else
      a.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t agg(std::atomic<int64_t> HistShard::* field) const {
    int64_t t = 0;
    for (const auto& s : shards_)
      t += (s.*field).load(std::memory_order_relaxed);
    return t;
  }

  std::string name_;
  HistShard shards_[kShards];
};

// Process-wide metric registry. Metric creation (find-or-create by name)
// takes a mutex; the returned references are stable for the process
// lifetime (the registry is intentionally immortal so late writers —
// e.g. pool workers counting idle sleeps during shutdown — never touch a
// destroyed object). Hot-path call sites cache the reference in a
// function-local static, so the lookup happens once per site.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  // nullptr when no metric with that name has been registered.
  Counter* find_counter(const std::string& name) const;
  Histogram* find_histogram(const std::string& name) const;

  size_t num_counters() const;
  size_t num_histograms() const;

  // Zero every registered metric (bench harness: per-measurement snapshots).
  void reset();

  // {"counters": {name: {"total": n, "shards": [..]}},
  //  "histograms": {name: {"count": n, "sum": n, "max": n,
  //                        "buckets": [[floor, count], ..]}}}
  std::string to_json() const;

  // Human-readable table, counters then histograms, sorted by name.
  void print_table(std::FILE* out) const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace ufo::obs

#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY

// Wrap declarations/statements that only exist for instrumentation (local
// accumulators feeding a single UFO_STAT at scope exit).
#define UFO_OBS_ONLY(...) __VA_ARGS__

#define UFO_STAT(name, delta)                                       \
  do {                                                              \
    static ::ufo::obs::Counter& ufo_stat_counter_ =                 \
        ::ufo::obs::MetricsRegistry::instance().counter(name);      \
    ufo_stat_counter_.add(static_cast<int64_t>(delta));             \
  } while (0)

#define UFO_STAT_HIST(name, value)                                  \
  do {                                                              \
    static ::ufo::obs::Histogram& ufo_stat_hist_ =                  \
        ::ufo::obs::MetricsRegistry::instance().histogram(name);    \
    ufo_stat_hist_.record(static_cast<int64_t>(value));             \
  } while (0)

#else

#define UFO_OBS_ONLY(...)
#define UFO_STAT(name, delta) \
  do {                        \
  } while (0)
#define UFO_STAT_HIST(name, value) \
  do {                             \
  } while (0)

#endif  // UFO_OBSERVABILITY
