// Union-find (disjoint set union) with path halving and union by size.
//
// Used as the *staging* structure for batch-dynamic updates: a batch of
// edge insertions is valid for the Section 5 batch contract only if the
// accepted edges are mutually independent (no two connect the same pair of
// components), and union-find is the cheapest way to certify that online.
// Extracted from examples/dynamic_connectivity.cpp so the connectivity
// subsystem and the examples share one implementation.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "graph/forest.h"

namespace ufo::util {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1), components_(n) {
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
  }

  // Representative of x's set (path halving: every other node on the find
  // path is re-pointed at its grandparent, giving the usual near-constant
  // amortized cost without a second pass).
  Vertex find(Vertex x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Merge the sets of a and b (union by size). Returns true iff they were
  // previously distinct.
  bool unite(Vertex a, Vertex b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --components_;
    return true;
  }

  bool same(Vertex a, Vertex b) { return find(a) == find(b); }
  size_t component_size(Vertex x) { return size_[find(x)]; }
  size_t num_components() const { return components_; }
  size_t size() const { return parent_.size(); }

  // Back to n singleton sets, reusing the buffers.
  void reset() {
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
    std::fill(size_.begin(), size_.end(), 1u);
    components_ = parent_.size();
  }

 private:
  std::vector<Vertex> parent_;
  std::vector<uint32_t> size_;
  size_t components_;
};

}  // namespace ufo::util
