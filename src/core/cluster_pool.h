// Pooled slab storage backing the SoA cluster pools (DESIGN.md, "Memory
// layout"). Two allocators live here:
//
//   * SlabPool<T>: variable-size slabs (power-of-two capacities) carved out
//     of geometrically growing segments, with per-(size-class, level)
//     freelists. Cluster adjacency lists, children lists, and adjacency
//     hash indexes live in these. Handles are 32-bit element indexes;
//     ptr(h) is two shifts and an add. Segments are never moved or freed
//     until pool destruction, so raw pointers/spans into a slab stay valid
//     across any other allocation — the property the backends rely on when
//     they hold a Span over one cluster's list while growing another's.
//   * ObjectPool<T>: fixed-size object pool with the same segment geometry,
//     used for the (rare) per-superunary-cluster rake indexes. Freed
//     objects keep their heap capacity and are recycled, which is the
//     point: a churning hub reuses one warmed-up index instead of
//     reallocating three containers per batch.
//
// Thread-safety: alloc/free on both pools are safe to call concurrently
// from pool workers and the main thread. SlabPool serves its eight
// smallest size classes from a lock-free cache per worker, indexed by
// par::worker_id(), so no other thread may call it; its freelists and bump
// cursor, and all of ObjectPool, are spinlocked. Element storage itself is
// unlocked and follows the owner-task discipline of the parallel backend.
// The segment pointer table is std::atomic so ptr() on a handle published
// across a join barrier is race-free under TSan.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "parallel/scheduler.h"
#include "util/fault.h"

namespace ufo::core {

// Null slab handle. Distinct from cluster id 0 (the null cluster).
constexpr uint32_t kNullSlab = 0xffffffffu;

class Spinlock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

class SpinGuard {
 public:
  explicit SpinGuard(Spinlock& l) : l_(l) { l_.lock(); }
  ~SpinGuard() { l_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  Spinlock& l_;
};

// Non-owning view over one slab's live prefix.
template <class T>
struct Span {
  T* data = nullptr;
  uint32_t n = 0;

  T* begin() const { return data; }
  T* end() const { return data + n; }
  uint32_t size() const { return n; }
  bool empty() const { return n == 0; }
  T& operator[](size_t i) const { return data[i]; }
  T& front() const { return data[0]; }
  T& back() const { return data[n - 1]; }
};

// Power-of-two capacity >= max(v, lo). v, lo <= 2^31.
inline uint32_t pow2_at_least(uint32_t v, uint32_t lo) {
  uint32_t x = v < lo ? lo : v;
  return std::bit_ceil(x);
}

template <class T, unsigned Seg0Log = 10>
class SlabPool {
 public:
  SlabPool()
      : caches_(std::make_unique<Cache[]>(
            static_cast<size_t>(par::num_workers()))) {}
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (auto& s : segs_) delete[] s.load(std::memory_order_relaxed);
  }

  // Segment b=0 holds handles [0, 2^Seg0Log); segment b>=1 holds
  // [2^(Seg0Log+b-1), 2^(Seg0Log+b)). seg_of is two instructions.
  static unsigned seg_of(uint32_t h) {
    uint32_t t = h >> Seg0Log;
    return t == 0 ? 0 : static_cast<unsigned>(std::bit_width(t));
  }
  static uint32_t seg_base(unsigned b) {
    return b == 0 ? 0 : (1u << (Seg0Log + b - 1));
  }
  static uint32_t seg_elems(unsigned b) {
    return b == 0 ? (1u << Seg0Log) : (1u << (Seg0Log + b - 1));
  }

  T* ptr(uint32_t h) const {
    unsigned b = seg_of(h);
    T* base = segs_[b].load(std::memory_order_acquire);
    assert(base != nullptr);
    return base + (h - seg_base(b));
  }

  // cap must be a power of two in [kMinCap, 2^(kClasses-1)]. `level` is a
  // recycling locality hint: slabs freed by teardown at tree level L are
  // preferentially handed back to allocations at L (negative = don't care).
  // The small classes go through the calling worker's cache, which ignores
  // the hint until it refills.
  uint32_t alloc(uint32_t cap, int32_t level) {
    // Injected allocation failure surfaces exactly like a real segment
    // allocation failing.
    if (UFO_FAULT_POINT("pool.slab.alloc")) throw std::bad_alloc();
    assert(std::has_single_bit(cap) && cap >= kMinCap);
    unsigned cls = static_cast<unsigned>(std::countr_zero(cap));
    assert(cls < kClasses);
    if (cls < kMinClass + kCachedClasses) {
      Cache& c = caches_[static_cast<size_t>(par::worker_id())];
      unsigned k = cls - kMinClass;
      if (c.n[k] == 0) refill(c, cls, level);
      return c.h[k][--c.n[k]];
    }
    uint32_t h;
    if (take_free(cls, bucket_of(level), 1, &h) == 1) return h;
    return bump_alloc(cap);
  }

  void free_slab(uint32_t h, uint32_t cap, int32_t level) {
    assert(h != kNullSlab && std::has_single_bit(cap));
    unsigned cls = static_cast<unsigned>(std::countr_zero(cap));
    unsigned lb = bucket_of(level);
    if (cls < kMinClass + kCachedClasses) {
      Cache& c = caches_[static_cast<size_t>(par::worker_id())];
      unsigned k = cls - kMinClass;
      if (c.n[k] == kCacheSlots) {
        // Full: hand the older half back to the shared freelist.
        SpinGuard g(class_lock_[cls]);
        auto& fl = free_[cls][lb];
        fl.insert(fl.end(), c.h[k], c.h[k] + kCacheSlots / 2);
        std::copy(c.h[k] + kCacheSlots / 2, c.h[k] + kCacheSlots, c.h[k]);
        c.n[k] = kCacheSlots / 2;
      }
      c.h[k][c.n[k]++] = h;
      return;
    }
    SpinGuard g(class_lock_[cls]);
    free_[cls][lb].push_back(h);
  }

  // Allocated segment bytes plus freelist and cache bookkeeping. Call from
  // quiescent code only (freelist capacities are read unlocked).
  size_t memory_bytes() const {
    size_t total = seg_bytes_.load(std::memory_order_relaxed) +
                   static_cast<size_t>(par::num_workers()) * sizeof(Cache);
    for (unsigned c = 0; c < kClasses; ++c)
      for (unsigned b = 0; b < kLevelBuckets; ++b)
        total += free_[c][b].capacity() * sizeof(uint32_t);
    return total;
  }

  static constexpr uint32_t kMinCap = 4;

 private:
  static constexpr unsigned kClasses = 28;
  static constexpr unsigned kLevelBuckets = 16;
  static constexpr unsigned kMaxSegs = 33 - Seg0Log;
  static constexpr unsigned kMinClass = 2;  // log2(kMinCap)
  static constexpr unsigned kCachedClasses = 8;
  static constexpr uint32_t kCacheSlots = 32;
  // A refill that finds the freelists empty bump-allocates this many
  // elements at once (at least one slab): 16 slabs of the smallest class.
  static constexpr uint32_t kBumpElems = 16 * kMinCap;

  // One worker's free handles for the kCachedClasses smallest classes.
  struct alignas(64) Cache {
    uint32_t n[kCachedClasses] = {};
    uint32_t h[kCachedClasses][kCacheSlots];
  };

  static unsigned bucket_of(int32_t level) {
    if (level < 0) return 0;
    return level < static_cast<int32_t>(kLevelBuckets)
               ? static_cast<unsigned>(level)
               : kLevelBuckets - 1;
  }

  // Pops up to `want` handles of class cls into out, level bucket lb
  // first; returns how many it found.
  uint32_t take_free(unsigned cls, unsigned lb, uint32_t want,
                     uint32_t* out) {
    SpinGuard g(class_lock_[cls]);
    uint32_t got = 0;
    for (unsigned i = 0; i <= kLevelBuckets && got < want; ++i) {
      auto& fl = free_[cls][i == 0 ? lb : i - 1];
      while (!fl.empty() && got < want) {
        out[got++] = fl.back();
        fl.pop_back();
      }
    }
    return got;
  }

  // Fills half of an empty cache from the freelists or, when they are
  // empty, with the slabs of one bump allocation of kBumpElems elements.
  // The bound keeps what a cache strands below kBumpElems per class.
  void refill(Cache& c, unsigned cls, int32_t level) {
    unsigned k = cls - kMinClass;
    c.n[k] = take_free(cls, bucket_of(level), kCacheSlots / 2, c.h[k]);
    if (c.n[k] > 0) return;
    uint32_t cap = 1u << cls;
    uint32_t slabs = cap < kBumpElems ? kBumpElems / cap : 1;
    uint32_t base = bump_alloc(cap * slabs);
    for (uint32_t i = 0; i < slabs; ++i)
      c.h[k][i] = base + (slabs - 1 - i) * cap;
    c.n[k] = slabs;
  }

  uint32_t bump_alloc(uint32_t cap) {
    SpinGuard g(bump_lock_);
    while (seg_elems(cur_seg_) - cur_off_ < cap) {
      carve_remainder();
      ++cur_seg_;
      assert(cur_seg_ < kMaxSegs);
      cur_off_ = 0;
    }
    ensure_seg(cur_seg_);
    uint32_t h = seg_base(cur_seg_) + cur_off_;
    cur_off_ += cap;
    return h;
  }

  // Push the unallocated tail of the current segment into the freelists as
  // power-of-two slabs so advancing to a bigger segment wastes nothing.
  // cur_off_ == 0 means the segment array was never materialized — skip it
  // without allocating. Lock order: bump_lock_ -> class_lock_ (alloc's
  // class-first path never takes bump_lock_ while holding a class lock).
  void carve_remainder() {
    if (cur_off_ == 0) return;
    uint32_t off = cur_off_;
    uint32_t rem = seg_elems(cur_seg_) - off;
    uint32_t base = seg_base(cur_seg_);
    while (rem >= kMinCap) {
      uint32_t c = std::bit_floor(rem);
      unsigned cls = static_cast<unsigned>(std::countr_zero(c));
      {
        SpinGuard g(class_lock_[cls]);
        free_[cls][0].push_back(base + off);
      }
      off += c;
      rem -= c;
    }
  }

  void ensure_seg(unsigned b) {
    if (segs_[b].load(std::memory_order_relaxed) != nullptr) return;
    T* arr = new T[seg_elems(b)]();
    segs_[b].store(arr, std::memory_order_release);
    seg_bytes_.fetch_add(size_t{seg_elems(b)} * sizeof(T),
                         std::memory_order_relaxed);
  }

  std::unique_ptr<Cache[]> caches_;  // one per pool worker
  std::atomic<T*> segs_[kMaxSegs] = {};
  std::atomic<size_t> seg_bytes_{0};
  Spinlock bump_lock_;
  unsigned cur_seg_ = 0;
  uint32_t cur_off_ = 0;
  Spinlock class_lock_[kClasses];
  std::vector<uint32_t> free_[kClasses][kLevelBuckets];
};

// Fixed-size object pool with the same lazily-allocated doubling segments.
// Freed objects are recycled with their internal capacity intact;
// for_each_allocated visits every slot ever handed out (including freed
// ones) so retained capacity is visible to memory accounting.
template <class T, unsigned Seg0Log = 5>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  ~ObjectPool() {
    for (auto& s : segs_) delete[] s.load(std::memory_order_relaxed);
  }

  uint32_t alloc() {
    if (UFO_FAULT_POINT("pool.obj.alloc")) throw std::bad_alloc();
    SpinGuard g(lock_);
    if (!free_.empty()) {
      uint32_t h = free_.back();
      free_.pop_back();
      return h;
    }
    uint32_t h = bump_++;
    ensure_seg(seg_of(h));
    return h;
  }

  void free_obj(uint32_t h) {
    SpinGuard g(lock_);
    free_.push_back(h);
  }

  T& at(uint32_t h) const {
    unsigned b = seg_of(h);
    T* base = segs_[b].load(std::memory_order_acquire);
    assert(base != nullptr);
    return base[h - seg_base(b)];
  }

  template <class F>
  void for_each_allocated(F&& f) const {
    for (uint32_t h = 0; h < bump_; ++h) f(at(h));
  }

  size_t memory_bytes() const {
    return seg_bytes_.load(std::memory_order_relaxed) +
           free_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr unsigned kMaxSegs = 33 - Seg0Log;

  static unsigned seg_of(uint32_t h) {
    uint32_t t = h >> Seg0Log;
    return t == 0 ? 0 : static_cast<unsigned>(std::bit_width(t));
  }
  static uint32_t seg_base(unsigned b) {
    return b == 0 ? 0 : (1u << (Seg0Log + b - 1));
  }
  static uint32_t seg_elems(unsigned b) {
    return b == 0 ? (1u << Seg0Log) : (1u << (Seg0Log + b - 1));
  }

  void ensure_seg(unsigned b) {
    if (segs_[b].load(std::memory_order_relaxed) != nullptr) return;
    T* arr = new T[seg_elems(b)]();
    segs_[b].store(arr, std::memory_order_release);
    seg_bytes_.fetch_add(size_t{seg_elems(b)} * sizeof(T),
                         std::memory_order_relaxed);
  }

  Spinlock lock_;
  std::vector<uint32_t> free_;
  uint32_t bump_ = 0;
  std::atomic<T*> segs_[kMaxSegs] = {};
  std::atomic<size_t> seg_bytes_{0};
};

}  // namespace ufo::core
