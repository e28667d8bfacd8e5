#include "parallel/scheduler.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace ufo::par {

namespace {

// Worker id of the calling thread: pool workers set theirs at spawn;
// external threads (including main) default to 0 and share deque 0.
thread_local int t_worker_id = 0;

// A work-stealing pool: every worker owns a deque and works LIFO off its
// back (hot caches, depth-first fork order), while thieves take FIFO off
// the front (big, old subtrees — the classic steal-half-the-range effect
// for the recursive primitives). Each deque has its own lock with critical
// sections of a few instructions, so the previous single mutex + condvar
// around one shared queue — which serialized every submit/pop at high
// worker counts — is gone; the only global state is the sleep bookkeeping.
// The public API (submit / try_run_one / help_while*) is unchanged, so no
// algorithm code is touched.
class WorkDeque {
 public:
  void push(std::function<void()> task) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }

  // Owner side: newest task first.
  bool pop(std::function<void()>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    *out = std::move(tasks_.back());
    tasks_.pop_back();
    return true;
  }

  // Thief side: oldest task first.
  bool steal(std::function<void()>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    *out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<std::function<void()>> tasks_;
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int workers() const { return workers_; }

  void submit(std::function<void()> task) {
    UFO_STAT("sched.submits", 1);
    deques_[slot()].push(std::move(task));
    // seq_cst pairs with the sleeper protocol in worker_loop: if this
    // increment is not visible to a worker's re-check under sleep_mu_,
    // then that worker's sleepers_ increment is visible here and we take
    // the lock to notify — no lost wakeup without locking on the fast
    // path (sleepers_ == 0 while the pool is busy).
    pending_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      cv_.notify_one();
    }
  }

  // Run one pending task — own deque first, then steal in a rotating sweep.
  // Returns false if every deque came up empty.
  bool try_run_one() {
    std::function<void()> task;
    size_t self = slot();
    if (!deques_[self].pop(&task)) {
      size_t n = deques_.size();
      size_t start = victim_seed()++;
      bool found = false;
      for (size_t i = 0; i < n && !found; ++i) {
        size_t v = (start + i) % n;
        if (v == self) continue;
        found = deques_[v].steal(&task);
      }
      if (!found) {
        UFO_STAT("sched.failed_steals", 1);
        return false;
      }
      UFO_STAT("sched.steals", 1);
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    UFO_STAT("sched.tasks", 1);
    task();
    return true;
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

 private:
  Pool() {
    workers_ = default_workers();
    // One deque per pool thread plus one shared by external submitters
    // (the main thread and any other caller hash to slot 0).
    deques_ = std::vector<WorkDeque>(static_cast<size_t>(workers_));
    for (int i = 1; i < workers_; ++i) {
      threads_.emplace_back([this, i] {
        t_worker_id = i;
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

  size_t slot() const {
    return static_cast<size_t>(t_worker_id) % deques_.size();
  }

  static size_t& victim_seed() {
    thread_local size_t seed =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return seed;
  }

  void worker_loop() {
    constexpr int kSpins = 64;  // brief steal-spin before sleeping
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      bool ran = false;
      for (int s = 0; s < kSpins && !ran; ++s) {
        ran = try_run_one();
        if (!ran) std::this_thread::yield();
      }
      if (ran) continue;
      UFO_STAT("sched.idle_sleeps", 1);
      // Precise sleep: register as a sleeper, then re-check for work under
      // the lock before blocking indefinitely. A submit that misses our
      // sleepers_ increment (seq_cst) must have published its pending_
      // increment first, so the predicate re-check sees it; a submit that
      // sees the increment notifies under sleep_mu_. Either way no wakeup
      // is lost, and an idle pool blocks at zero cost.
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_seq_cst) > 0;
      });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  int workers_;
  std::vector<WorkDeque> deques_;
  std::vector<std::thread> threads_;
  std::atomic<size_t> pending_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable cv_;
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

void submit(std::function<void()> task) {
  Pool::instance().submit(std::move(task));
}

void help_while(const std::atomic<bool>& done) {
  auto& pool = Pool::instance();
  while (!done.load(std::memory_order_acquire)) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
}

void help_while_counter(const std::atomic<size_t>& remaining) {
  auto& pool = Pool::instance();
  while (remaining.load(std::memory_order_acquire) != 0) {
    if (!pool.try_run_one()) std::this_thread::yield();
  }
}

}  // namespace internal

}  // namespace ufo::par
