// SortedBag: a multiset of int64 keys stored as key -> count, backing the
// pooled rake indexes (DESIGN.md, "Memory layout"). The rake index only
// asks for the ends of each bag (min / max / the two largest), and a
// superunary cluster's rakes repeat few distinct keys (a star's rakes all
// contribute the same depth), so one ordered map node per distinct key is
// both small and O(log distinct) per operation. Reads are const, so
// concurrent queries may share a bag.
//
// Not thread-safe for writes; each bag is owned by one cluster's rake
// index and every parallel phase gives a cluster exactly one owner task.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

namespace ufo::core {

class SortedBag {
 public:
  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  void clear() {
    counts_.clear();
    live_ = 0;
  }

  void insert(int64_t v) {
    ++counts_[v];
    ++live_;
  }

  void erase_one(int64_t v) {
    auto it = counts_.find(v);
    assert(it != counts_.end() && "SortedBag::erase_one: value not present");
    if (--it->second == 0) counts_.erase(it);
    --live_;
  }

  int64_t min() const {
    assert(live_ > 0);
    return counts_.begin()->first;
  }

  int64_t max() const {
    assert(live_ > 0);
    return counts_.rbegin()->first;
  }

  // Fills out[0] >= out[1] with the largest values (a duplicate counts
  // twice); returns how many were filled (min(size(), 2)).
  int top2(int64_t out[2]) const {
    if (live_ == 0) return 0;
    auto it = counts_.rbegin();
    out[0] = it->first;
    if (live_ == 1) return 1;
    out[1] = it->second >= 2 ? it->first : std::next(it)->first;
    return 2;
  }

  size_t memory_bytes() const { return counts_.size() * kNodeBytes; }

 private:
  // Heap bytes per distinct key: a red-black tree node as libstdc++ and
  // libc++ lay it out (a colour word and parent/left/right pointers, 32
  // bytes on 64-bit) followed by the key/count pair.
  static constexpr size_t kNodeBytes =
      4 * sizeof(void*) + sizeof(std::map<int64_t, uint32_t>::value_type);

  std::map<int64_t, uint32_t> counts_;  // key -> copies; no zero counts
  size_t live_ = 0;                     // total copies
};

}  // namespace ufo::core
