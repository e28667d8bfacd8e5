// Phase-concurrent open-addressing hash tables for 64-bit keys, in the style
// of Gil--Matias--Vishkin / the ParlayLib hash table: concurrent inserts are
// lock-free (linear probing with CAS), deletes use tombstones, and resizing
// happens only at phase boundaries (single-threaded callers). This matches
// how the paper's batch-update algorithms use tables: one phase inserts, a
// barrier, then another phase reads or deletes.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/random.h"

namespace ufo::par {

// One table core for both instantiations: V = void is a set of keys, any
// other V maps each key to a value held in a parallel slot array. Within a
// phase, concurrent inserts of *distinct* keys and concurrent erases are
// safe; lookups are safe in read phases. A map value written by insert()
// becomes visible to readers after the phase barrier (the fork-join join
// publishes it); phases that mix inserts and reads of the same key are not
// supported, matching how the connectivity layer uses the weight map (bulk
// weight writes, then queries).
template <class V>
class ConcurrentTable {
  static constexpr bool kMap = !std::is_void_v<V>;
  struct NoValue {};
  using Value = std::conditional_t<kMap, V, NoValue>;
  using Values =
      std::conditional_t<kMap, std::vector<std::atomic<Value>>, NoValue>;

 public:
  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr uint64_t kTombstone = ~0ULL - 1;

  // A default table has capacity_for(0, 0) = 16 slots: the connectivity
  // layer holds one per vertex, most of them nearly empty.
  explicit ConcurrentTable(size_t capacity_hint = 0) {
    reserve(capacity_hint);
  }

  ConcurrentTable(const ConcurrentTable& other) { copy_from(other); }
  ConcurrentTable& operator=(const ConcurrentTable& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Phase-concurrent insert. Returns true iff the key was absent; a map
  // insert of a present key assigns the value. Keys kEmpty/kTombstone are
  // reserved. The caller must guarantee enough capacity (use reserve() at a
  // phase boundary before a concurrent phase).
  bool insert(uint64_t key)
    requires(!kMap)
  {
    return put(key, NoValue{});
  }
  bool insert(uint64_t key, Value value)
    requires kMap
  {
    return put(key, value);
  }

  // Sequential insert-or-assign; grows on demand.
  bool insert_or_assign(uint64_t key, Value value)
    requires kMap
  {
    reserve(1);
    return put(key, value);
  }

  // Phase-concurrent erase (tombstone). Returns true iff the key was present.
  bool erase(uint64_t key) {
    for (size_t i = find(key); i != SIZE_MAX; i = find(key)) {
      uint64_t expected = key;
      if (keys_[i].compare_exchange_strong(expected, kTombstone,
                                           std::memory_order_acq_rel)) {
        tombs_.fetch_add(1, std::memory_order_relaxed);
        size_.fetch_sub(1, std::memory_order_relaxed);
        UFO_STAT("hash.erases", 1);
        return true;
      }
      UFO_STAT("hash.cas_retries", 1);
    }
    return false;
  }

  bool contains(uint64_t key) const { return find(key) != SIZE_MAX; }

  // Value for `key`, or `fallback` when absent (read phase).
  Value get(uint64_t key, Value fallback) const
    requires kMap
  {
    size_t i = find(key);
    return i == SIZE_MAX ? fallback : vals_[i].load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t capacity() const { return keys_.size(); }
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

  // Single-threaded (phase boundary): make room for `n` *additional* keys.
  // Sizing counts live keys: the table must hold size() + n at load factor
  // <= 1/2 (capacity_for), or a request smaller than size() would rehash
  // the live set into a table it cannot fit and the next insert would spin
  // on a full probe chain. Tombstones count toward occupancy too: every
  // probe loop terminates only on a kEmpty slot, and outside a rehash a
  // tombstone never reverts to empty. So the table also rehashes (dropping
  // tombstones) once live + tombstones + n would pass 3/4 of the slots.
  // Either way at least a quarter of the slots stay kEmpty through the
  // following phase, and a same-size rehash costs O(capacity) only after
  // >= capacity/4 tombstones have accumulated: O(1) amortized per erase.
  void reserve(size_t n) {
    size_t want = capacity_for(size(), n);
    // In this branch want <= capacity, so size() + n < capacity/2 and the
    // subtraction below cannot underflow.
    if (want <= keys_.size() &&
        tombstones() <= keys_.size() / 4 * 3 - (size() + n))
      return;  // roomy enough, even counting tombstoned slots
    UFO_STAT("hash.resizes", 1);
    // Allocate before tearing anything down, so a failed allocation leaves
    // the table untouched (try_reserve relies on this).
    std::vector<std::atomic<uint64_t>> keys(want);
    Values vals{};
    if constexpr (kMap) vals = Values(want);
    for (auto& s : keys) s.store(kEmpty, std::memory_order_relaxed);
    keys_.swap(keys);
    if constexpr (kMap) vals_.swap(vals);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t k = keys[i].load(std::memory_order_relaxed);
      if (k != kEmpty && k != kTombstone) put(k, value_at(vals, i));
    }
  }

  // reserve() with the allocation failure surfaced as a return value
  // instead of bad_alloc. The table is untouched on failure, so callers can
  // degrade (e.g. fall back to per-key growth) rather than terminate.
  bool try_reserve(size_t n) noexcept {
    if (UFO_FAULT_POINT("hash.reserve")) return false;
    try {
      reserve(n);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  }

  // Visit every live key, or (key, value) pair for a map (read-only phase).
  template <class F>
  void for_each(F&& f) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      uint64_t k = keys_[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTombstone) continue;
      if constexpr (kMap)
        f(k, value_at(vals_, i));
      else
        f(k);
    }
  }

  size_t memory_bytes() const {
    size_t slot = sizeof(std::atomic<uint64_t>);
    if constexpr (kMap) slot += sizeof(std::atomic<Value>);
    return sizeof(*this) + keys_.size() * slot;
  }

 private:
  // The probe-and-claim routine. It scans the whole probe chain before
  // claiming a tombstone: the key may sit past tombstones left by earlier
  // erases, and claiming the first tombstone would duplicate it (a later
  // erase would remove only one copy and contains() would still find the
  // other). If a concurrent insert takes the remembered slot, it rescans.
  bool put(uint64_t key, Value value) {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    size_t tomb = SIZE_MAX;
    UFO_OBS_ONLY(int64_t probes = 1;)
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) {
        store_value(i, value);
        UFO_STAT_HIST("hash.probe_len", probes);
        return false;
      }
      if (cur == kTombstone && tomb == SIZE_MAX) tomb = i;
      if (cur == kEmpty) {
        size_t target = tomb != SIZE_MAX ? tomb : i;
        uint64_t expected = keys_[target].load(std::memory_order_relaxed);
        if (expected != kEmpty && expected != kTombstone) {
          // Lost the remembered slot to a concurrent insert; rescan.
          UFO_STAT("hash.cas_retries", 1);
          tomb = SIZE_MAX;
          i = util::hash64(key) & mask;
          continue;
        }
        if (keys_[target].compare_exchange_strong(
                expected, key, std::memory_order_acq_rel)) {
          store_value(target, value);
          if (expected == kTombstone)
            tombs_.fetch_sub(1, std::memory_order_relaxed);
          size_.fetch_add(1, std::memory_order_relaxed);
          UFO_STAT("hash.inserts", 1);
          UFO_STAT_HIST("hash.probe_len", probes);
          return true;
        }
        UFO_STAT("hash.cas_retries", 1);
        if (expected == key) {
          store_value(target, value);
          return false;
        }
        continue;  // raced on the slot; retry
      }
      UFO_OBS_ONLY(++probes;)
      i = (i + 1) & mask;
    }
  }

  // Slot holding `key`, or SIZE_MAX.
  size_t find(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) return i;
      if (cur == kEmpty) return SIZE_MAX;
      i = (i + 1) & mask;
    }
  }

  static Value value_at([[maybe_unused]] const Values& vals,
                        [[maybe_unused]] size_t i) {
    if constexpr (kMap)
      return vals[i].load(std::memory_order_relaxed);
    else
      return NoValue{};
  }
  void store_value([[maybe_unused]] size_t i, [[maybe_unused]] Value v) {
    if constexpr (kMap) vals_[i].store(v, std::memory_order_relaxed);
  }

  void copy_from(const ConcurrentTable& other) {
    size_t cap = other.keys_.size();
    keys_ = std::vector<std::atomic<uint64_t>>(cap);
    if constexpr (kMap) vals_ = Values(cap);
    for (size_t i = 0; i < cap; ++i) {
      keys_[i].store(other.keys_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      store_value(i, value_at(other.vals_, i));
    }
    size_.store(other.size(), std::memory_order_relaxed);
    tombs_.store(other.tombstones(), std::memory_order_relaxed);
  }

  std::vector<std::atomic<uint64_t>> keys_;
  [[no_unique_address]] Values vals_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> tombs_{0};
};

using ConcurrentSet = ConcurrentTable<void>;
using ConcurrentMap = ConcurrentTable<int64_t>;

// Per-slot ownership claims for phase-concurrent algorithms: many tasks race
// to claim the same dense id (such as a graph vertex) and exactly one
// wins the CAS and performs the work; a loser drops its duplicate request
// and reads the winner with owner_of(). Slots are epoch-tagged so a new
// phase invalidates every previous claim in O(1) — no O(n) clear between
// batches, which matters when a small batch touches a huge structure.
class ClaimTable {
 public:
  // owner_of() result when nobody claimed the id this phase. Owners must be
  // < kUnclaimed (the replacement search uses piece indexes, dense and
  // well below 2^32 - 1).
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

}  // namespace ufo::par
