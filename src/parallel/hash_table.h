// A phase-concurrent open-addressing hash set for 64-bit keys, in the style
// of Gil--Matias--Vishkin / the ParlayLib hash table: concurrent inserts are
// lock-free (linear probing with CAS), deletes use tombstones, and resizing
// happens only at phase boundaries (single-threaded callers). This matches
// how the paper's batch-update algorithms use tables: one phase inserts, a
// barrier, then another phase reads or deletes.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/random.h"

namespace ufo::par {

class ConcurrentSet {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr uint64_t kTombstone = ~0ULL - 1;

  explicit ConcurrentSet(size_t capacity_hint = 16) { reserve(capacity_hint); }

  ConcurrentSet(const ConcurrentSet& other) { copy_from(other); }
  ConcurrentSet& operator=(const ConcurrentSet& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Phase-concurrent insert. Returns true if the key was newly inserted.
  // Keys kEmpty/kTombstone are reserved. The caller must guarantee enough
  // capacity (use reserve() at a phase boundary before a concurrent phase).
  bool insert(uint64_t key) {
    size_t mask = slots_.size() - 1;
    size_t i = util::hash64(key) & mask;
    // Scan the full probe chain before claiming a tombstone: the key may
    // sit past tombstones left by earlier erases, and claiming the first
    // tombstone would duplicate it (a later erase would remove only one
    // copy and contains() would still find the other).
    size_t tomb = SIZE_MAX;
    UFO_OBS_ONLY(int64_t probes = 1;)
    for (;;) {
      uint64_t cur = slots_[i].load(std::memory_order_relaxed);
      if (cur == key) {
        UFO_STAT_HIST("hash.set.probe_len", probes);
        return false;
      }
      if (cur == kTombstone && tomb == SIZE_MAX) tomb = i;
      if (cur == kEmpty) {
        size_t target = tomb != SIZE_MAX ? tomb : i;
        uint64_t expected = slots_[target].load(std::memory_order_relaxed);
        if (expected != kEmpty && expected != kTombstone) {
          // Lost the remembered slot to a concurrent insert; rescan.
          UFO_STAT("hash.set.cas_retries", 1);
          tomb = SIZE_MAX;
          i = util::hash64(key) & mask;
          continue;
        }
        if (slots_[target].compare_exchange_strong(
                expected, key, std::memory_order_acq_rel)) {
          if (expected == kTombstone)
            tombs_.fetch_sub(1, std::memory_order_relaxed);
          size_.fetch_add(1, std::memory_order_relaxed);
          UFO_STAT("hash.set.inserts", 1);
          UFO_STAT_HIST("hash.set.probe_len", probes);
          return true;
        }
        UFO_STAT("hash.set.cas_retries", 1);
        if (expected == key) return false;
        continue;  // raced on the slot; retry
      }
      UFO_OBS_ONLY(++probes;)
      i = (i + 1) & mask;
    }
  }

  // Phase-concurrent erase (tombstone). Returns true if the key was present.
  bool erase(uint64_t key) {
    size_t mask = slots_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = slots_[i].load(std::memory_order_relaxed);
      if (cur == kEmpty) return false;
      if (cur == key) {
        uint64_t expected = key;
        if (slots_[i].compare_exchange_strong(expected, kTombstone,
                                              std::memory_order_acq_rel)) {
          tombs_.fetch_add(1, std::memory_order_relaxed);
          size_.fetch_sub(1, std::memory_order_relaxed);
          UFO_STAT("hash.set.erases", 1);
          return true;
        }
        UFO_STAT("hash.set.cas_retries", 1);
        continue;
      }
      i = (i + 1) & mask;
    }
  }

  bool contains(uint64_t key) const {
    size_t mask = slots_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = slots_[i].load(std::memory_order_relaxed);
      if (cur == key) return true;
      if (cur == kEmpty) return false;
      i = (i + 1) & mask;
    }
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }
  size_t tombstones() const { return tombs_.load(std::memory_order_relaxed); }

  // Largest representable table size (the top power of two of size_t).
  // capacity_for() saturates here instead of overflowing; a reserve that
  // saturates will fail to allocate long before correctness matters, but it
  // fails loudly (bad_alloc) rather than looping on a zero-sized table.
  static constexpr size_t kMaxCapacity = size_t{1}
                                         << (8 * sizeof(size_t) - 1);

  // Slot count needed to hold `live + extra` keys at load factor <= 1/2:
  // the smallest power of two >= 2 * (live + extra + 1), clamped to
  // kMaxCapacity. Overflow-safe: `want / 2 <= need` is equivalent to
  // `want < 2 * (need + 1)` for powers of two without ever multiplying.
  static constexpr size_t capacity_for(size_t live, size_t extra) {
    size_t need = live < SIZE_MAX - extra ? live + extra : SIZE_MAX;
    size_t want = 16;
    while (want < kMaxCapacity && want / 2 <= need) want <<= 1;
    return want;
  }

  // Single-threaded (phase boundary): grow so that `n` *additional* keys fit
  // on top of the current live set with load factor <= 1/2, rehashing live
  // keys and dropping tombstones. Sizing must count live keys: a request
  // smaller than size() would otherwise rehash the live set into a table it
  // cannot fit (load factor >= 1), and the next insert would spin forever on
  // a full probe chain. Tombstones count toward occupancy too — every probe
  // loop terminates only on a kEmpty slot, and outside a rehash a tombstone
  // never reverts to empty, so sustained insert/erase churn at stable live
  // size would otherwise consume every empty slot and wedge the next
  // absent-key probe. Rehashing (which drops them) whenever live +
  // tombstones + n passes half the table keeps >= capacity/2 - n empty
  // slots through any phase.
  void reserve(size_t n) {
    size_t want = capacity_for(size(), n);
    // In this branch want <= capacity, so size() + n <= capacity/2 and the
    // occupancy sum below cannot overflow.
    if (want <= slots_.size() &&
        size() + tombstones() + n <= slots_.size() / 2)
      return;  // roomy enough, even counting tombstoned slots
    UFO_STAT("hash.set.resizes", 1);
    std::vector<uint64_t> live = elements();
    std::vector<std::atomic<uint64_t>> fresh(want);
    slots_.swap(fresh);
    for (auto& s : slots_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
    for (uint64_t k : live) insert(k);
  }

  // reserve() with the allocation failure surfaced as a return value
  // instead of bad_alloc. The set is untouched on failure (the new table
  // is allocated before anything is torn down), so callers can degrade —
  // e.g. fall back to incremental per-edge growth — rather than terminate.
  bool try_reserve(size_t n) noexcept {
    if (UFO_FAULT_POINT("hash.reserve")) return false;
    try {
      reserve(n);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  }

  // Snapshot of live keys (single-threaded or read-only phase).
  std::vector<uint64_t> elements() const {
    std::vector<uint64_t> out;
    out.reserve(size());
    for (const auto& s : slots_) {
      uint64_t v = s.load(std::memory_order_relaxed);
      if (v != kEmpty && v != kTombstone) out.push_back(v);
    }
    return out;
  }

  // Visit every live key (read-only phase).
  template <class F>
  void for_each(F&& f) const {
    for (const auto& s : slots_) {
      uint64_t v = s.load(std::memory_order_relaxed);
      if (v != kEmpty && v != kTombstone) f(v);
    }
  }

  void clear() {
    for (auto& s : slots_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
  }

  size_t memory_bytes() const {
    return slots_.size() * sizeof(std::atomic<uint64_t>) + sizeof(*this);
  }

 private:
  void copy_from(const ConcurrentSet& other) {
    slots_ = std::vector<std::atomic<uint64_t>>(other.slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i)
      slots_[i].store(other.slots_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    size_.store(other.size(), std::memory_order_relaxed);
    tombs_.store(other.tombstones(), std::memory_order_relaxed);
  }

  std::vector<std::atomic<uint64_t>> slots_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> tombs_{0};
};

// Per-slot ownership claims for phase-concurrent algorithms: many tasks race
// to claim the same dense id (a cluster, a teardown walk target, a graph
// vertex) and exactly one wins the CAS and performs the work; a loser drops
// its duplicate request, relying on the winner's effect (the claimed cluster
// re-enters the shared frontier) to serve it. Slots are epoch-tagged so a new
// phase invalidates every previous claim in O(1) — no O(n) clear between
// batches, which matters when a small batch touches a huge structure.
class ClaimTable {
 public:
  // owner_of() result when nobody claimed the id this phase. Owners must be
  // < kUnclaimed (the replacement search uses piece indexes, the teardown
  // walk uses cluster ids — both dense and well below 2^32 - 1).
  static constexpr uint32_t kUnclaimed = 0xffffffffu;

  // Single-threaded phase boundary: make ids [0, n) claimable and retire
  // every claim from earlier phases.
  void begin_phase(size_t n) {
    if (slots_.size() < n) {
      // Atomics are not movable; rebuild and restart the epoch count.
      std::vector<std::atomic<uint64_t>> fresh(n + n / 2 + 16);
      for (auto& s : fresh) s.store(0, std::memory_order_relaxed);
      slots_.swap(fresh);
      epoch_ = 0;
    }
    ++epoch_;
    if ((epoch_ >> 32) != 0) {  // 32-bit epoch wrapped: hard-clear instead
      for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
      epoch_ = 1;
    }
  }

  // Phase-concurrent: claim `id` for `owner`. Returns true iff this call
  // won (exactly one claim per id per phase succeeds).
  bool claim(size_t id, uint32_t owner) {
    uint64_t want = (epoch_ << 32) | owner;
    uint64_t cur = slots_[id].load(std::memory_order_relaxed);
    for (;;) {
      if ((cur >> 32) == epoch_) {
        UFO_STAT("claim.lost", 1);
        return false;  // already claimed this phase
      }
      if (slots_[id].compare_exchange_weak(cur, want,
                                           std::memory_order_acq_rel)) {
        UFO_STAT("claim.won", 1);
        return true;
      }
      UFO_STAT("claim.cas_retries", 1);
    }
  }

  // Holder of `id`'s claim this phase, or kUnclaimed. Safe concurrently with
  // claims (a racing claim may or may not be visible, as with any snapshot
  // read); exact after a phase barrier.
  uint32_t owner_of(size_t id) const {
    uint64_t cur = slots_[id].load(std::memory_order_relaxed);
    return (cur >> 32) == epoch_ ? static_cast<uint32_t>(cur) : kUnclaimed;
  }

  size_t memory_bytes() const {
    return sizeof(*this) + slots_.size() * sizeof(std::atomic<uint64_t>);
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
  uint64_t epoch_ = 0;  // low 32 bits of slots hold the owner, high the epoch
};

// A phase-concurrent open-addressing map from 64-bit keys to 64-bit values,
// sharing ConcurrentSet's concurrency contract: concurrent inserts of
// *distinct* keys and concurrent erases are safe within a phase, lookups are
// safe in read phases, and capacity growth happens only at phase boundaries.
// A value written by insert_concurrent becomes visible to readers after the
// phase barrier (the fork-join join publishes it); phases that mix inserts
// and reads of the same key are not supported, matching how the connectivity
// layer uses it (bulk weight writes, then queries).
class ConcurrentMap {
 public:
  static constexpr uint64_t kEmpty = ConcurrentSet::kEmpty;
  static constexpr uint64_t kTombstone = ConcurrentSet::kTombstone;

  explicit ConcurrentMap(size_t capacity_hint = 16) { reserve(capacity_hint); }

  ConcurrentMap(const ConcurrentMap& other) { copy_from(other); }
  ConcurrentMap& operator=(const ConcurrentMap& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Phase-concurrent insert; keys must be distinct across concurrent
  // callers and capacity pre-reserved. Returns true iff the key was absent.
  bool insert_concurrent(uint64_t key, int64_t value) {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    size_t tomb = SIZE_MAX;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) {
        vals_[i].store(value, std::memory_order_relaxed);
        return false;
      }
      if (cur == kTombstone && tomb == SIZE_MAX) tomb = i;
      if (cur == kEmpty) {
        size_t target = tomb != SIZE_MAX ? tomb : i;
        uint64_t expected = keys_[target].load(std::memory_order_relaxed);
        if (expected != kEmpty && expected != kTombstone) {
          tomb = SIZE_MAX;  // lost the remembered slot; rescan
          i = util::hash64(key) & mask;
          continue;
        }
        if (keys_[target].compare_exchange_strong(
                expected, key, std::memory_order_acq_rel)) {
          vals_[target].store(value, std::memory_order_relaxed);
          if (expected == kTombstone)
            tombs_.fetch_sub(1, std::memory_order_relaxed);
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        if (expected == key) {
          vals_[target].store(value, std::memory_order_relaxed);
          return false;
        }
        continue;  // raced on the slot; retry
      }
      i = (i + 1) & mask;
    }
  }

  // Sequential insert-or-assign; grows on demand.
  bool insert_or_assign(uint64_t key, int64_t value) {
    reserve(1);
    return insert_concurrent(key, value);
  }

  // Phase-concurrent erase (tombstone). Returns true iff the key existed.
  bool erase(uint64_t key) {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == kEmpty) return false;
      if (cur == key) {
        uint64_t expected = key;
        if (keys_[i].compare_exchange_strong(expected, kTombstone,
                                             std::memory_order_acq_rel)) {
          tombs_.fetch_add(1, std::memory_order_relaxed);
          size_.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
        continue;
      }
      i = (i + 1) & mask;
    }
  }

  bool contains(uint64_t key) const { return slot_of(key) != SIZE_MAX; }

  // Value for `key`, or `fallback` when absent (read phase).
  int64_t get(uint64_t key, int64_t fallback) const {
    size_t i = slot_of(key);
    return i == SIZE_MAX ? fallback : vals_[i].load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return keys_.size(); }

  // Single-threaded (phase boundary): grow so `n` additional keys fit at
  // load factor <= 1/2; same tombstone-aware policy as ConcurrentSet.
  void reserve(size_t n) {
    size_t want = ConcurrentSet::capacity_for(size(), n);
    if (want <= keys_.size() &&
        size() + tombs_.load(std::memory_order_relaxed) + n <=
            keys_.size() / 2)
      return;
    UFO_STAT("hash.map.resizes", 1);
    std::vector<std::pair<uint64_t, int64_t>> live;
    live.reserve(size());
    for_each([&](uint64_t k, int64_t v) { live.emplace_back(k, v); });
    std::vector<std::atomic<uint64_t>> fresh_keys(want);
    std::vector<std::atomic<int64_t>> fresh_vals(want);
    keys_.swap(fresh_keys);
    vals_.swap(fresh_vals);
    for (auto& s : keys_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
    for (const auto& [k, v] : live) insert_concurrent(k, v);
  }

  // reserve() with the allocation failure surfaced instead of thrown; the
  // map is untouched on failure so callers can degrade to per-key growth.
  bool try_reserve(size_t n) noexcept {
    if (UFO_FAULT_POINT("hash.reserve")) return false;
    try {
      reserve(n);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  }

  // Visit every live (key, value) pair (read-only phase).
  template <class F>
  void for_each(F&& f) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      uint64_t k = keys_[i].load(std::memory_order_relaxed);
      if (k != kEmpty && k != kTombstone)
        f(k, vals_[i].load(std::memory_order_relaxed));
    }
  }

  void clear() {
    for (auto& s : keys_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
  }

  size_t memory_bytes() const {
    return sizeof(*this) +
           keys_.size() * (sizeof(std::atomic<uint64_t>) +
                           sizeof(std::atomic<int64_t>));
  }

 private:
  size_t slot_of(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) return i;
      if (cur == kEmpty) return SIZE_MAX;
      i = (i + 1) & mask;
    }
  }

  void copy_from(const ConcurrentMap& other) {
    keys_ = std::vector<std::atomic<uint64_t>>(other.keys_.size());
    vals_ = std::vector<std::atomic<int64_t>>(other.vals_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      keys_[i].store(other.keys_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      vals_[i].store(other.vals_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    size_.store(other.size(), std::memory_order_relaxed);
    tombs_.store(other.tombs_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  }

  std::vector<std::atomic<uint64_t>> keys_;
  std::vector<std::atomic<int64_t>> vals_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> tombs_{0};
};

}  // namespace ufo::par
