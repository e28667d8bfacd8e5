#include "parallel/scheduler.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/metrics.h"

namespace ufo::par {

namespace {

using internal::Job;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Fixed-capacity Chase–Lev deque of job pointers (Chase & Lev, SPAA'05, in
// the C11 form of Lê et al., PPoPP'13). The owner pushes and pops at the
// bottom; thieves take the oldest job at the top with one CAS, and the
// owner races them with the same CAS only for the last job. Every access
// to top and bottom is seq_cst in place of the paper's fences, which costs
// one locked instruction per push and pop on x86 and keeps the protocol
// visible to TSan. A slot is read before the CAS that claims it; a stale
// read loses the CAS, because the owner reuses a slot only after top has
// moved past it.
class Deque {
 public:
  static constexpr int64_t kCapacity = 256;  // power of two

  bool push(Job* j) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= kCapacity) return false;
    slots_[b & (kCapacity - 1)].store(j, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  // Owner side: the newest job, or null if thieves took everything.
  Job* pop() {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Job* j = slots_[b & (kCapacity - 1)].load(std::memory_order_relaxed);
    if (t == b) {
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        j = nullptr;
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return j;
  }

  // Thief side: the oldest job, or null if empty or another thief won.
  Job* steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Job* j = slots_[t & (kCapacity - 1)].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;
    return j;
  }

  bool empty() const {
    return top_.load(std::memory_order_seq_cst) >=
           bottom_.load(std::memory_order_seq_cst);
  }

 private:
  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  alignas(64) std::atomic<Job*> slots_[kCapacity] = {};
};

// Worker id and deque of the calling thread. Pool workers set both at
// spawn and the thread that builds the pool owns deque 0; any other
// thread keeps a null deque and forks inline.
thread_local int t_worker_id = 0;
thread_local Deque* t_deque = nullptr;

// A thief that finds no job keeps stealing, with a pause between sweeps,
// for this long before it sleeps. It must cover the gap between two
// batch phases: a sleeping thief can take tens to hundreds of microseconds
// to wake on a virtualized host, and the fork that woke it waits on it
// meanwhile.
constexpr auto kIdleWindow = std::chrono::milliseconds(5);

// A worker that finds no job pauses before its next sweep, twice as long
// after each failed sweep up to kMaxPauses (about a microsecond), so idle
// thieves do not pull the owners' deque lines away on every fork. Every
// kSweepsPerYield failed sweeps (about a millisecond) it yields, so that an
// oversubscribed host still runs the thief a spinning worker waits on. A
// yield can hand the core to another process for a whole time slice, so
// it must stay rare; an idle worker reads the clock every kSweepsPerCheck.
constexpr unsigned kMaxPauses = 32;
constexpr unsigned kSweepsPerYield = 1024;
constexpr unsigned kSweepsPerCheck = 64;

inline unsigned pauses_after(unsigned fails) {
  return fails < 5 ? 1u << fails : kMaxPauses;
}

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int workers() const { return n_; }

  void fork2(Job& left, Job& right) {
    Deque* d = t_deque;
    if (d == nullptr || !d->push(&right)) {
      left.run(&left);
      right.run(&right);
      return;
    }
    UFO_STAT("sched.tasks", 1);
    // seq_cst against the sleeper's increment in sleep(): either this
    // load sees it and notifies, or the sleeper's predicate sees the job.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_one();
    try {
      left.run(&left);
    } catch (...) {
      // The right arm's record dies with this frame: take it back, or
      // wait for the thief, before unwinding.
      if (d->pop() == nullptr) wait_for(right);
      throw;
    }
    // Balanced nesting leaves the right arm on top unless a thief took
    // it, and then it took everything older too.
    if (d->pop() != nullptr) {
      right.run(&right);
      return;
    }
    wait_for(right);
    if (right.error) std::rethrow_exception(right.error);
  }

  ~Pool() {
    {
      // Under sleep_mu_: a worker between its predicate check and its
      // block would otherwise miss both the flag and the notify, and the
      // join below would hang at process exit.
      std::lock_guard<std::mutex> lock(sleep_mu_);
      stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  Pool() : n_(default_workers()), deques_(new Deque[n_]) {
    t_deque = &deques_[0];
    for (int i = 1; i < n_; ++i) {
      threads_.emplace_back([this, i] {
        t_worker_id = i;
        t_deque = &deques_[i];
        worker_loop();
      });
    }
  }

  static int default_workers() {
    if (const char* env = std::getenv("UFOTREE_NUM_THREADS")) {
      int v = std::atoi(env);
      if (v >= 1) return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  // One sweep over the other workers' deques from a random start.
  Job* steal_once() {
    thread_local uint64_t seed =
        0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t_worker_id + 1);
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    int self = t_worker_id;
    int start = static_cast<int>(seed % static_cast<uint64_t>(n_));
    for (int i = 0; i < n_; ++i) {
      int v = start + i < n_ ? start + i : start + i - n_;
      if (v == self) continue;
      if (Job* j = deques_[v].steal()) {
        UFO_STAT("sched.steals", 1);
        return j;
      }
    }
    UFO_STAT("sched.failed_steals", 1);
    return nullptr;
  }

  static void run_stolen(Job* j) {
    try {
      j->run(j);
    } catch (...) {
      j->error = std::current_exception();
    }
    j->done.store(true, std::memory_order_release);
  }

  // A forker whose right arm was stolen runs other jobs until it is done,
  // watching the done flag while it backs off.
  void wait_for(Job& j) {
    unsigned fails = 0;
    while (!j.done.load(std::memory_order_acquire)) {
      if (Job* s = steal_once()) {
        run_stolen(s);
        fails = 0;
        continue;
      }
      if (++fails % kSweepsPerYield == 0) std::this_thread::yield();
      for (unsigned p = pauses_after(fails);
           p > 0 && !j.done.load(std::memory_order_acquire); --p)
        cpu_relax();
    }
  }

  void worker_loop() {
    using Clock = std::chrono::steady_clock;
    auto deadline = Clock::now() + kIdleWindow;
    unsigned fails = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      if (Job* j = steal_once()) {
        run_stolen(j);
        fails = 0;
        deadline = Clock::now() + kIdleWindow;
        continue;
      }
      if (++fails % kSweepsPerCheck == 0 && Clock::now() >= deadline) {
        sleep();
        fails = 0;
        deadline = Clock::now() + kIdleWindow;
        continue;
      }
      if (fails % kSweepsPerYield == 0) std::this_thread::yield();
      for (unsigned p = pauses_after(fails); p > 0; --p) cpu_relax();
    }
  }

  bool has_work() const {
    for (int i = 0; i < n_; ++i)
      if (!deques_[i].empty()) return true;
    return false;
  }

  // Register as a sleeper, then re-check for work under the lock before
  // blocking: a fork that misses the increment (seq_cst) pushed its job
  // first, so the predicate sees it; a fork that sees it notifies under
  // sleep_mu_. Either way no wakeup is lost, and an idle pool blocks at
  // zero cost.
  void sleep() {
    UFO_STAT("sched.idle_sleeps", 1);
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) || has_work();
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  void wake_one() {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    cv_.notify_one();
  }

  const int n_;
  std::unique_ptr<Deque[]> deques_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

int num_workers() {
  // Width is fixed at pool construction; cache it so the per-call cost is
  // one initialized-static check instead of a singleton access.
  static const int cached = Pool::instance().workers();
  return cached;
}

int worker_id() { return t_worker_id; }

namespace internal {

void fork2(Job& left, Job& right) { Pool::instance().fork2(left, right); }

}  // namespace internal

}  // namespace ufo::par
