// SortedBag: a flat sorted-array multiset of int64 keys, replacing the
// std::multiset rake-index containers (DESIGN.md, "Memory layout"). The
// rake index only ever asks for min / max / top-2 and bulk sorted-run
// merges, so a tree container is pure overhead: this keeps one sorted
// vector plus a small sorted pending buffer and per-slot dead flags.
//
//   * insert: binary search + memmove into the bounded pending buffer
//     (flushed into the main run when it fills) — O(kPendMax) worst case,
//     amortized O(log) for the search.
//   * erase_one: tombstone in the main run (or memmove out of pending).
//     Dead slots carry path-compressed forward skip counts, so walking a
//     dead run costs amortized O(1) — critical for duplicate-heavy bags
//     (a star's rakes all contribute the same key, so erasing k of them
//     repeatedly crosses one ever-growing dead prefix of an equal run).
//     Trailing/leading dead slots are trimmed eagerly by the queries; the
//     whole run compacts when half its slots are dead.
//   * merge_sorted_run / assign_sorted: the bulk paths used by
//     rake_index_merge_runs — one in-place backward merge, O(existing+new),
//     exactly the cost the hinted-multiset merge had but contiguous.
//
// Not thread-safe; each bag is owned by one cluster's rake index and every
// parallel phase gives a cluster exactly one owner task.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ufo::core {

class SortedBag {
 public:
  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  void clear() {
    vals_.clear();
    dead_.clear();
    pend_.clear();
    head_ = 0;
    ndead_ = 0;
    live_ = 0;
  }

  void insert(int64_t v) {
    auto it = std::lower_bound(pend_.begin(), pend_.end(), v);
    pend_.insert(it, v);
    ++live_;
    if (pend_.size() >= kPendMax) flush();
  }

  void erase_one(int64_t v) {
    auto p = std::lower_bound(pend_.begin(), pend_.end(), v);
    if (p != pend_.end() && *p == v) {
      pend_.erase(p);
      --live_;
      return;
    }
    auto lo = std::lower_bound(vals_.begin() + head_, vals_.end(), v);
    // Tombstones only ever land on the first live slot of an equal run, so
    // dead slots form a prefix of the run; one skip-jump lands on a live
    // copy of v (or proves it absent).
    size_t i = skip_dead(static_cast<size_t>(lo - vals_.begin()));
    if (i < vals_.size() && vals_[i] == v) {
      dead_[i] = 1;
      ++ndead_;
      --live_;
      maybe_compact();
      return;
    }
    assert(false && "SortedBag::erase_one: value not present");
  }

  int64_t min() {
    assert(live_ > 0);
    trim_front();
    bool hv = head_ < vals_.size();
    if (hv && !pend_.empty()) return std::min(vals_[head_], pend_.front());
    return hv ? vals_[head_] : pend_.front();
  }

  int64_t max() {
    assert(live_ > 0);
    trim_back();
    bool hv = vals_.size() > head_;
    if (hv && !pend_.empty()) return std::max(vals_.back(), pend_.back());
    return hv ? vals_.back() : pend_.back();
  }

  // Fills out[0] >= out[1] with the largest live values; returns how many
  // were filled (min(live_, 2)).
  int top2(int64_t out[2]) {
    trim_back();
    int64_t cand[4];
    int nc = 0;
    size_t pn = pend_.size();
    if (pn >= 1) cand[nc++] = pend_[pn - 1];
    if (pn >= 2) cand[nc++] = pend_[pn - 2];
    // Two topmost live main-run slots. The scan skips interior dead slots;
    // if it had to skip many, compact so repeated queries stay cheap.
    size_t i = vals_.size();
    size_t skipped = 0;
    int got = 0;
    while (i > head_ && got < 2) {
      --i;
      if (dead_[i]) {
        ++skipped;
      } else {
        cand[nc++] = vals_[i];
        ++got;
      }
    }
    if (skipped > kScanLimit) {
      flush();
      return top2(out);  // at most one recursion: everything is live now
    }
    // Two-maximum selection over the (at most four) candidates.
    int64_t hi = 0, lo = 0;
    for (int k = 0; k < nc; ++k) {
      if (k == 0 || cand[k] > hi) {
        lo = hi;
        hi = cand[k];
      } else if (k == 1 || cand[k] > lo) {
        lo = cand[k];
      }
    }
    int take = static_cast<int>(std::min<size_t>(live_, 2));
    if (take > 0) out[0] = hi;
    if (take > 1) out[1] = lo;
    return take;
  }

  // Bulk add of an already-sorted run: flush pending + drop tombstones,
  // then one in-place backward merge. O(existing + new).
  void merge_sorted_run(const std::vector<int64_t>& run) {
    if (run.empty()) return;
    assert(std::is_sorted(run.begin(), run.end()));
    flush();
    size_t old = vals_.size();
    vals_.resize(old + run.size());
    size_t i = old, j = run.size(), k = vals_.size();
    while (j > 0) {
      if (i > 0 && vals_[i - 1] > run[j - 1])
        vals_[--k] = vals_[--i];
      else
        vals_[--k] = run[--j];
    }
    dead_.assign(vals_.size(), 0);
    live_ += run.size();
  }

  size_t memory_bytes() const {
    return vals_.capacity() * sizeof(int64_t) +
           dead_.capacity() * sizeof(uint32_t) +
           pend_.capacity() * sizeof(int64_t);
  }

 private:
  static constexpr size_t kPendMax = 256;
  static constexpr size_t kScanLimit = 64;

  // First live slot at or after i, jumping dead runs via their skip counts
  // and path-compressing the hint at i so the next walk from here is O(1).
  // May return vals_.size() (clamped) when everything from i on is dead.
  size_t skip_dead(size_t i) {
    size_t j = i;
    while (j < vals_.size() && dead_[j] != 0) j += dead_[j];
    if (j > vals_.size()) j = vals_.size();  // stale hint past a trim_back
    if (j > i && i < vals_.size()) dead_[i] = static_cast<uint32_t>(j - i);
    return j;
  }

  void trim_front() {
    size_t j = skip_dead(head_);
    ndead_ -= j - head_;  // every skipped slot was dead and inside the span
    head_ = j;
    if (head_ == vals_.size() && head_ != 0) {
      vals_.clear();
      dead_.clear();
      head_ = 0;
    }
  }

  void trim_back() {
    while (vals_.size() > head_ && dead_[vals_.size() - 1]) {
      vals_.pop_back();
      dead_.pop_back();
      --ndead_;
    }
    if (vals_.size() == head_ && head_ != 0) {
      vals_.clear();
      dead_.clear();
      head_ = 0;
    }
  }

  void maybe_compact() {
    size_t span = vals_.size() - head_;
    if (ndead_ >= 32 && 2 * ndead_ >= span) flush();
  }

  // Merge the live main-run slots with the pending buffer into a fresh
  // dense sorted run.
  void flush() {
    std::vector<int64_t> merged;
    merged.reserve(live_);
    size_t i = head_, j = 0;
    while (i < vals_.size() || j < pend_.size()) {
      if (i < vals_.size() && dead_[i]) {
        ++i;
        continue;
      }
      bool take_v = i < vals_.size() &&
                    (j >= pend_.size() || vals_[i] <= pend_[j]);
      merged.push_back(take_v ? vals_[i++] : pend_[j++]);
    }
    assert(merged.size() == live_);
    vals_ = std::move(merged);
    dead_.assign(vals_.size(), 0);
    pend_.clear();
    head_ = 0;
    ndead_ = 0;
  }

  std::vector<int64_t> vals_;   // sorted; may contain tombstoned slots
  std::vector<uint32_t> dead_;  // parallel to vals_; 0 = live, else a skip
                                // count: slots [i, i + dead_[i]) are dead
                                // (lazily compressed, clamped on read)
  std::vector<int64_t> pend_;   // sorted, all live, size < kPendMax
  size_t head_ = 0;             // first possibly-live vals_ slot
  size_t ndead_ = 0;            // dead slots within [head_, vals_.size())
  size_t live_ = 0;             // total live values (vals_ + pend_)
};

}  // namespace ufo::core
