// Parallel sequence primitives built on the fork-join scheduler: exclusive
// scan, order-preserving emission (emit, and filter over it), and a stable
// counting semisort (group_by), the library's one grouping and dedupe
// primitive. These mirror the ParlayLib primitives the paper's
// implementation relies on, with matching asymptotics in the binary
// fork-join model: O(n) work each (group_by: O(n) per radix pass, a
// constant number of passes for keys of bounded width). scan works in
// blocks of kBlock items and runs one block inline; emit splits any list
// longer than kEmitMin indices across workers, and runs inline with one
// worker.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "parallel/scheduler.h"

namespace ufo::par {

// Items per block of the blocked passes.
inline constexpr size_t kBlock = 2048;

// Shortest list emit splits, and its smallest block.
inline constexpr size_t kEmitMin = 256;

// Exclusive prefix sums in place; returns the grand total.
template <class T>
T scan_exclusive(std::vector<T>& v) {
  size_t n = v.size();
  size_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks <= 1) {
    T acc{};
    for (size_t i = 0; i < n; ++i) {
      T x = v[i];
      v[i] = acc;
      acc += x;
    }
    return acc;
  }
  std::vector<T> partial(nblocks);
  parallel_for(0, nblocks, [&](size_t b) {
    T acc{};
    size_t end = std::min(n, (b + 1) * kBlock);
    for (size_t i = b * kBlock; i < end; ++i) acc += v[i];
    partial[b] = acc;
  });
  T total{};
  for (size_t b = 0; b < nblocks; ++b) {
    T x = partial[b];
    partial[b] = total;
    total += x;
  }
  parallel_for(0, nblocks, [&](size_t b) {
    T acc = partial[b];
    size_t end = std::min(n, (b + 1) * kBlock);
    for (size_t i = b * kBlock; i < end; ++i) {
      T x = v[i];
      v[i] = acc;
      acc += x;
    }
  });
  return total;
}

// Order-preserving emission, the one pack/flatten primitive: calls
// body(i, out) exactly once for each i < n, where out(x) appends x, and
// returns every appended item in index order. With one worker, or at most
// kEmitMin indices, it runs inline into one vector. Longer lists split
// into blocks of max(kEmitMin, n / (8 * workers)) indices, at most kBlock:
// each block appends into its own vector, and a scan of the block sizes
// and a copy fill the result. A fork costs well under a microsecond
// (bench_fork_join), so even the O(height) edge walks of a batch of 512
// spread across workers. A vector reserves one item per index at its
// first item, so a pack allocates once per block and an emission of
// nothing allocates nothing. Bodies may have side effects, since each runs
// once.
template <class T, class Body>
std::vector<T> emit(size_t n, Body&& body) {
  auto run = [&](size_t lo, size_t hi, std::vector<T>& part) {
    auto out = [&](const T& x) {
      if (part.capacity() == 0) part.reserve(hi - lo);
      part.push_back(x);
    };
    for (size_t i = lo; i < hi; ++i) body(i, out);
  };
  size_t workers = static_cast<size_t>(num_workers());
  if (n <= kEmitMin || workers <= 1) {
    std::vector<T> all;
    run(0, n, all);
    return all;
  }
  size_t block = std::clamp((n + 8 * workers - 1) / (8 * workers), kEmitMin,
                            kBlock);
  size_t nblocks = (n + block - 1) / block;
  std::vector<std::vector<T>> parts(nblocks);
  std::vector<size_t> off(nblocks);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        run(b * block, std::min(n, (b + 1) * block), parts[b]);
        off[b] = parts[b].size();
      },
      1);
  std::vector<T> all(scan_exclusive(off));
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        std::copy(parts[b].begin(), parts[b].end(), all.begin() + off[b]);
      },
      all.size() <= kBlock ? nblocks : 1);
  return all;
}

// The elements of v that satisfy pred (called once on each), in order.
template <class T, class Pred>
std::vector<T> filter(const std::vector<T>& v, Pred&& pred) {
  return emit<T>(v.size(), [&](size_t i, auto& out) {
    if (pred(v[i])) out(v[i]);
  });
}

// Items grouped by key: group g holds the key keys[g] and the item indices
// at[start[g]] .. at[start[g + 1] - 1]; start has one entry per group plus
// a last entry n.
template <class K>
struct Groups {
  std::vector<K> keys;
  std::vector<uint32_t> start;
  std::vector<uint32_t> at;
};

// Largest input group_by sorts serially, and its widest radix digit. The
// leaf ends where the radix passes start to beat it on 32-bit cluster ids.
inline constexpr size_t kGroupLeaf = 192;
inline constexpr int kDigitBits = 11;

// The one grouping primitive, a stable counting semisort (Gu, Shun, Sun &
// Blelloch, SPAA'15): groups items 0..n-1 by the unsigned 32- or 64-bit key
// key_of(i), called once per item. Groups come in ascending key order and
// each group's items in index order, so the output depends on the input
// alone and is the same at every worker count. Up to kGroupLeaf items sort
// their (key, index) pairs serially. Larger inputs take one pass that
// stores the pairs and finds the largest key, then LSD radix passes over
// its significant bits, in digits of at most kDigitBits bits and at most
// bit_width(n) bits. Each pass counts digits per block, scans the counts
// digit by digit and block by block, and scatters each block in order.
// There are at most 8 blocks per worker, and several only when each holds
// at least 4 items per counter, so the serial scan costs at most a quarter
// of a pass, or 2n counters with one block. O(n) work per pass.
template <class KeyOf>
auto group_by(size_t n, KeyOf&& key_of) {
  using K = std::decay_t<std::invoke_result_t<KeyOf&, size_t>>;
  static_assert(std::is_unsigned_v<K> && (sizeof(K) == 4 || sizeof(K) == 8),
                "group_by keys are 32- or 64-bit unsigned integers");
  struct Item {
    K key;
    uint32_t i;
  };
  std::vector<Item> a(n);
  if (n <= kGroupLeaf) {
    for (size_t i = 0; i < n; ++i)
      a[i] = {key_of(i), static_cast<uint32_t>(i)};
    std::sort(a.begin(), a.end(), [](const Item& x, const Item& y) {
      return x.key < y.key || (x.key == y.key && x.i < y.i);
    });
  } else {
    size_t nfill = (n + kBlock - 1) / kBlock;
    std::vector<K> top(nfill);
    parallel_for(
        0, nfill,
        [&](size_t b) {
          K m = 0;
          for (size_t i = b * kBlock, end = std::min(n, i + kBlock); i < end;
               ++i) {
            a[i] = {key_of(i), static_cast<uint32_t>(i)};
            m = std::max(m, a[i].key);
          }
          top[b] = m;
        },
        1);
    int bits = std::bit_width(*std::max_element(top.begin(), top.end()));
    int widest = std::min(kDigitBits, static_cast<int>(std::bit_width(n)));
    int passes = (bits + widest - 1) / widest;
    int digit = passes == 0 ? 0 : (bits + passes - 1) / passes;
    size_t radix = size_t{1} << digit;
    size_t nblocks = std::clamp<size_t>(
        n / (4 * radix), 1, 8 * static_cast<size_t>(num_workers()));
    size_t len = (n + nblocks - 1) / nblocks;
    std::vector<Item> b(n);
    std::vector<uint32_t> count(nblocks * radix);
    for (int shift = 0; shift < bits; shift += digit) {
      auto digit_of = [&](const Item& x) {
        return static_cast<size_t>(x.key >> shift) & (radix - 1);
      };
      parallel_for(
          0, nblocks,
          [&](size_t blk) {
            uint32_t* c = &count[blk * radix];
            std::fill(c, c + radix, 0);
            for (size_t i = blk * len, end = std::min(n, i + len); i < end;
                 ++i)
              ++c[digit_of(a[i])];
          },
          1);
      uint32_t acc = 0;
      for (size_t d = 0; d < radix; ++d)
        for (size_t blk = 0; blk < nblocks; ++blk) {
          uint32_t x = count[blk * radix + d];
          count[blk * radix + d] = acc;
          acc += x;
        }
      parallel_for(
          0, nblocks,
          [&](size_t blk) {
            uint32_t* c = &count[blk * radix];
            for (size_t i = blk * len, end = std::min(n, i + len); i < end;
                 ++i)
              b[c[digit_of(a[i])]++] = a[i];
          },
          1);
      a.swap(b);
    }
  }
  Groups<K> g;
  g.start = emit<uint32_t>(n + 1, [&](size_t i, auto& out) {
    if (i == 0 || i == n || a[i].key != a[i - 1].key)
      out(static_cast<uint32_t>(i));
  });
  g.keys.resize(g.start.size() - 1);
  parallel_for(
      0, g.keys.size(), [&](size_t j) { g.keys[j] = a[g.start[j]].key; },
      kBlock);
  g.at.resize(n);
  parallel_for(0, n, [&](size_t i) { g.at[i] = a[i].i; }, kBlock);
  return g;
}

}  // namespace ufo::par
