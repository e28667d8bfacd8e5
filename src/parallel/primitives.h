// Parallel sequence primitives built on the fork-join scheduler: reduce,
// exclusive scan, order-preserving emission (emit, and filter over it),
// merge sort, duplicate removal, and semisort (group-by-key). These mirror
// the ParlayLib primitives the paper's implementation relies on, with
// matching asymptotics in the binary fork-join model (sorting-based
// semisort: O(k log k) work, which at the batch sizes used here is
// indistinguishable from the O(k) hashing variant). reduce and scan work
// in blocks of kBlock items and run one block inline; emit splits any list
// longer than kEmitMin indices across workers, and runs inline with one
// worker.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "parallel/scheduler.h"

namespace ufo::par {

// Items per block of the blocked passes.
inline constexpr size_t kBlock = 2048;

// Shortest list emit splits, and its smallest block.
inline constexpr size_t kEmitMin = 256;

// Reduce v with an associative op and identity element.
template <class T, class Op>
T reduce(const std::vector<T>& v, T identity, Op&& op) {
  size_t n = v.size();
  if (n == 0) return identity;
  size_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks == 1) {
    T acc = identity;
    for (const T& x : v) acc = op(acc, x);
    return acc;
  }
  std::vector<T> partial(nblocks, identity);
  parallel_for(0, nblocks, [&](size_t b) {
    T acc = identity;
    size_t end = std::min(n, (b + 1) * kBlock);
    for (size_t i = b * kBlock; i < end; ++i) acc = op(acc, v[i]);
    partial[b] = acc;
  });
  T acc = identity;
  for (const T& x : partial) acc = op(acc, x);
  return acc;
}

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

// Stable parallel merge of two sorted runs into `out`. Splits the larger
// run at its midpoint, binary-searches the split key in the other run, and
// recurses on both halves in parallel — O(n) work, O(log^2 n) depth.
// Stability: b-elements equal to the a-side split key land in the right
// half (lower_bound), so equal a-elements always precede equal b-elements.
template <class T, class Cmp>
void par_merge_into(const T* a, size_t na, const T* b, size_t nb, T* out,
                    const Cmp& cmp) {
  constexpr size_t kSerialMerge = 8192;
  if (na + nb <= kSerialMerge) {
    std::merge(a, a + na, b, b + nb, out, cmp);
    return;
  }
  if (na >= nb) {
    size_t ma = na / 2;
    size_t mb = static_cast<size_t>(
        std::distance(b, std::lower_bound(b, b + nb, a[ma], cmp)));
    par_do([&] { par_merge_into(a, ma, b, mb, out, cmp); },
           [&] { par_merge_into(a + ma, na - ma, b + mb, nb - mb,
                                out + ma + mb, cmp); });
  } else {
    // Split b instead; a-elements equal to the b-side split key must stay
    // in the LEFT half to keep a-before-b order (upper_bound).
    size_t mb = nb / 2;
    size_t ma = static_cast<size_t>(
        std::distance(a, std::upper_bound(a, a + na, b[mb], cmp)));
    par_do([&] { par_merge_into(a, ma, b, mb, out, cmp); },
           [&] { par_merge_into(a + ma, na - ma, b + mb, nb - mb,
                                out + ma + mb, cmp); });
  }
}

// Parallel merge sort with a fully parallel merge step (the classic
// ping-pong scheme between the data and a scratch buffer): O(n log n) work
// and polylog depth, against the previous serial std::inplace_merge whose
// top-level merge alone was O(n) depth. Stable at the leaves
// (std::stable_sort) and across merges (par_merge_into) so semisort groups
// preserve input order within a group.
template <class T, class Cmp>
void sort(std::vector<T>& v, Cmp cmp) {
  constexpr size_t kLeaf = 8192;
  struct Rec {
    // Sorts data[0, n); the result lands in data (to_scratch = false) or
    // scratch (to_scratch = true). Halves are sorted into the *other*
    // buffer, then merged into the target.
    static void go(T* data, T* scratch, size_t n, const Cmp& cmp,
                   bool to_scratch) {
      if (n <= kLeaf) {
        std::stable_sort(data, data + n, cmp);
        if (to_scratch) std::copy(data, data + n, scratch);
        return;
      }
      size_t half = n / 2;
      par_do([&] { go(data, scratch, half, cmp, !to_scratch); },
             [&] {
               go(data + half, scratch + half, n - half, cmp, !to_scratch);
             });
      const T* lo = to_scratch ? data : scratch;
      T* dst = to_scratch ? scratch : data;
      par_merge_into(lo, half, lo + half, n - half, dst, cmp);
    }
  };
  if (v.size() <= kLeaf) {
    std::stable_sort(v.begin(), v.end(), cmp);
    return;
  }
  std::vector<T> scratch(v.size());
  Rec::go(v.data(), scratch.data(), v.size(), cmp, /*to_scratch=*/false);
}

template <class T>
void sort(std::vector<T>& v) {
  sort(v, std::less<T>{});
}

// Sort + unique. Deterministic duplicate removal used for MapToParents /
// MapToChildren frontier sets in the batch-update algorithms.
template <class T>
void remove_duplicates(std::vector<T>& v) {
  sort(v);
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Semisort: reorder key/value pairs so equal keys are adjacent, and return
// the [begin, end) index ranges of each group.
template <class K, class V>
std::vector<std::pair<size_t, size_t>> group_by_key(
    std::vector<std::pair<K, V>>& kv) {
  sort(kv, [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<size_t, size_t>> groups;
  size_t n = kv.size();
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && kv[j].first == kv[i].first) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  return groups;
}

}  // namespace ufo::par
