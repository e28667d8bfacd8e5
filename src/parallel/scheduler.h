// A small structured fork-join runtime, standing in for ParlayLib.
//
// The model is nested fork-join (binary forking): `par_do` forks two arms,
// and `parallel_for` halves an index range recursively through `par_do`.
// Every worker owns a fixed-capacity Chase–Lev deque of job records. A
// fork pushes a record for its right arm that lives in the forking frame
// (a function pointer, a done flag and an error slot; no heap allocation,
// no lock), runs the left arm, then pops the record back and runs it
// inline unless a thief took it. A forker whose right arm was stolen
// steals other work until the thief marks the record done, so nested
// parallelism cannot deadlock. Idle workers steal, spinning, for a few
// milliseconds and then sleep until the next fork (DESIGN.md, "Fork-join
// runtime").
//
// Worker count defaults to std::thread::hardware_concurrency() and can be
// pinned with the UFOTREE_NUM_THREADS environment variable (1 disables all
// threading and runs inline, which is also the fallback on 1-core machines).
// Fork-join calls may come from pool workers and from the one external
// thread that first used the pool (normally main); any other thread runs
// both arms of its forks inline.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <type_traits>

namespace ufo::par {

// Number of worker threads (including the caller). Cached after the pool's
// first use, so hot call sites (parallel_for's grain heuristic runs on
// every invocation) pay one static-guard check instead of re-deriving the
// pool width through the singleton.
int num_workers();

// Id of the calling thread within the pool, in [0, num_workers()): pool
// workers get 1..num_workers()-1, and the main thread (or any other
// external caller) is 0. Fixed for a thread's lifetime — benches, the
// telemetry layer and the slab pools' per-worker caches index by it.
int worker_id();

namespace internal {

// A forked arm: what a deque slot points at. It lives in the forking
// frame, which does not return before the record is done.
struct Job {
  explicit Job(void (*fn)(Job*)) : run(fn) {}
  void (*run)(Job*);
  std::atomic<bool> done{false};
  std::exception_ptr error;  // set by a thief whose run threw
};

template <class F>
struct FnJob : Job {
  explicit FnJob(F& f) : Job(&FnJob::call), fn(&f) {}
  static void call(Job* j) { (*static_cast<FnJob*>(j)->fn)(); }
  F* fn;
};

// Runs left inline and right in parallel with it when a thief takes it;
// returns when both are done, rethrowing the first exception either threw.
void fork2(Job& left, Job& right);

}  // namespace internal

// Run `left` and `right`, potentially in parallel. Returns when both are done.
template <class L, class R>
void par_do(L&& left, R&& right) {
  if (num_workers() <= 1) {
    left();
    right();
    return;
  }
  internal::FnJob<std::remove_reference_t<L>> l(left);
  internal::FnJob<std::remove_reference_t<R>> r(right);
  internal::fork2(l, r);
}

namespace internal {

template <class F>
void for_range(size_t lo, size_t hi, size_t grain, F& f) {
  if (hi - lo <= grain) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  par_do([&] { for_range(lo, mid, grain, f); },
         [&] { for_range(mid, hi, grain, f); });
}

}  // namespace internal

// parallel_for over [lo, hi). `grain` is the largest range run without a
// further split; 0 picks a default of ~8 leaves per worker.
template <class F>
void parallel_for(size_t lo, size_t hi, F&& f, size_t grain = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  int workers = num_workers();
  if (workers <= 1 || n == 1) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  if (grain == 0)
    grain = (n + 8 * static_cast<size_t>(workers) - 1) /
            (8 * static_cast<size_t>(workers));
  if (grain < 1) grain = 1;
  internal::for_range(lo, hi, grain, f);
}

}  // namespace ufo::par
