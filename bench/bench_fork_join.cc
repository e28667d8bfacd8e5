// Fork-join runtime microbenchmark: the cost of the scheduler itself,
// with bodies too small to hide it. Rows, at the pool width the process
// runs with (pin it with UFOTREE_NUM_THREADS):
//   * par_for back-to-back: µs per par::parallel_for whose body adds one
//     to v[i], for n = 64, 2048 and 16384, called in a tight loop (median
//     of 21 slices of the loop);
//   * par_for after-idle: the same call made 500 µs after the previous
//     one returned, when the workers have gone idle (median of the calls);
//   * par_do: µs per par::par_do with two empty arms, back to back.
//
//   UFOTREE_NUM_THREADS=4 ./bench_fork_join [--quick] [--json=out.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "parallel/scheduler.h"
#include "util/timer.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

struct Row {
  std::string op;
  std::string mode;
  size_t n;
  double us;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// µs per call of f over `calls` back-to-back calls: the median of
// kSlices equal slices, so that a slice the host preempted does not count.
template <class F>
double per_call_us(int calls, F&& f) {
  constexpr int kSlices = 21;
  int per = std::max(1, calls / kSlices);
  std::vector<double> slices;
  for (int s = 0; s < kSlices; ++s) {
    util::Timer t;
    for (int r = 0; r < per; ++r) f();
    slices.push_back(1e6 * t.elapsed() / per);
  }
  return median(slices);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  const int reps = opt.quick ? 200 : 5000;
  const int idle_reps = opt.quick ? 20 : 200;
  const auto idle = std::chrono::microseconds(500);
  std::vector<Row> rows;
  std::printf("[fork-join] %d workers\n", par::num_workers());
  {
    // Keep the pool busy for a while first: the kernel may start a new
    // worker thread on its parent's core and only spread the threads out
    // after some time, and until then a second worker only slows the first.
    std::vector<uint64_t> v(2048, 0);
    util::Timer t;
    while (t.elapsed() < (opt.quick ? 0.1 : 0.5))
      par::parallel_for(0, v.size(), [&](size_t i) { v[i] += 1; });
  }

  for (size_t n : {size_t{64}, size_t{2048}, size_t{16384}}) {
    std::vector<uint64_t> v(n, 0);
    auto call = [&] { par::parallel_for(0, n, [&](size_t i) { v[i] += 1; }); };
    rows.push_back({"par_for", "back-to-back", n, per_call_us(reps, call)});

    std::vector<double> after_idle;
    for (int r = 0; r < idle_reps; ++r) {
      std::this_thread::sleep_for(idle);
      util::Timer ti;
      call();
      after_idle.push_back(1e6 * ti.elapsed());
    }
    rows.push_back({"par_for", "after-idle", n, median(after_idle)});
    const uint64_t calls = v[0];  // every call must reach every index
    if (calls == 0 ||
        std::count(v.begin(), v.end(), calls) != static_cast<long>(n))
      return 1;
  }

  rows.push_back({"par_do", "back-to-back", 2,
                  per_call_us(10 * reps, [] { par::par_do([] {}, [] {}); })});

  std::printf("%-8s %-13s %6s %10s\n", "op", "mode", "n", "us/call");
  for (const Row& r : rows)
    std::printf("%-8s %-13s %6zu %10.3f\n", r.op.c_str(), r.mode.c_str(), r.n,
                r.us);

  if (!opt.json.empty()) {
    obs::JsonWriter cfg;
    cfg.begin_object();
    cfg.key("threads");
    cfg.value(static_cast<int64_t>(par::num_workers()));
    cfg.key("reps");
    cfg.value(static_cast<int64_t>(reps));
    cfg.key("idle_us");
    cfg.value(static_cast<int64_t>(idle.count()));
    cfg.end_object();
    obs::JsonWriter rw;
    rw.begin_array();
    for (const Row& r : rows) {
      rw.begin_object();
      rw.key("op");
      rw.value(r.op);
      rw.key("mode");
      rw.value(r.mode);
      rw.key("n");
      rw.value(static_cast<uint64_t>(r.n));
      rw.key("us_per_call");
      rw.value(r.us);
      rw.end_object();
    }
    rw.end_array();
    if (!write_bench_json(opt.json, "bench_fork_join", cfg.str(), rw.str()))
      return 1;
  }
  return 0;
}
