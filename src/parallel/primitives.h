// Parallel sequence primitives built on the fork-join scheduler: map, reduce,
// exclusive scan, pack/filter, merge sort, duplicate removal, and semisort
// (group-by-key). These mirror the ParlayLib primitives the paper's
// implementation relies on, with matching asymptotics in the binary
// fork-join model (sorting-based semisort: O(k log k) work, which at the
// batch sizes used here is indistinguishable from the O(k) hashing variant).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "parallel/scheduler.h"

namespace ufo::par {

// Apply f to every index and collect the results.
template <class F>
auto map(size_t n, F&& f) -> std::vector<decltype(f(size_t{0}))> {
  using T = decltype(f(size_t{0}));
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

// Reduce v with an associative op and identity element.
template <class T, class Op>
T reduce(const std::vector<T>& v, T identity, Op&& op) {
  size_t n = v.size();
  if (n == 0) return identity;
  size_t block = 2048;
  size_t nblocks = (n + block - 1) / block;
  if (nblocks == 1) {
    T acc = identity;
    for (const T& x : v) acc = op(acc, x);
    return acc;
  }
  std::vector<T> partial(nblocks, identity);
  parallel_for(0, nblocks, [&](size_t b) {
    T acc = identity;
    size_t end = std::min(n, (b + 1) * block);
    for (size_t i = b * block; i < end; ++i) acc = op(acc, v[i]);
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
  size_t block = 2048;
  size_t nblocks = (n + block - 1) / block;
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
    size_t end = std::min(n, (b + 1) * block);
    for (size_t i = b * block; i < end; ++i) acc += v[i];
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
    size_t end = std::min(n, (b + 1) * block);
    for (size_t i = b * block; i < end; ++i) {
      T x = v[i];
      v[i] = acc;
      acc += x;
    }
  });
  return total;
}

// Keep the elements whose flag is set, preserving order.
template <class T, class Pred>
std::vector<T> filter(const std::vector<T>& v, Pred&& pred) {
  size_t n = v.size();
  std::vector<size_t> keep(n);
  parallel_for(0, n, [&](size_t i) { keep[i] = pred(v[i]) ? 1 : 0; });
  size_t total = scan_exclusive(keep);
  std::vector<T> out(total);
  parallel_for(0, n, [&](size_t i) {
    bool last = (i + 1 == n);
    size_t next = last ? total : keep[i + 1];
    if (next != keep[i]) out[keep[i]] = v[i];
  });
  return out;
}

// filter() variant whose predicate sees the element *index* instead of the
// value — used when the keep/drop decision lives in a parallel side array
// (e.g. batch_erase's per-candidate kind codes) rather than in the element.
template <class T, class Pred>
std::vector<T> filter_index(const std::vector<T>& v, Pred&& pred) {
  size_t n = v.size();
  std::vector<size_t> keep(n);
  parallel_for(0, n, [&](size_t i) { keep[i] = pred(i) ? 1 : 0; });
  size_t total = scan_exclusive(keep);
  std::vector<T> out(total);
  parallel_for(0, n, [&](size_t i) {
    bool last = (i + 1 == n);
    size_t next = last ? total : keep[i + 1];
    if (next != keep[i]) out[keep[i]] = v[i];
  });
  return out;
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
