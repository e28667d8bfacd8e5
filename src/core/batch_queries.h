// Parallel batch queries.
//
// Section 3.3/4.2 of the paper: contraction-tree queries are read-only, so
// "any number of queries can be run in parallel with no synchronization."
// These helpers exploit exactly that: they fan a batch of independent
// queries across the fork-join pool with one parallel_for and no locking.
// batch_connected on a UfoCore-based tree goes one step further: each task
// takes a block of pairs and climbs all their endpoints together through
// UfoCore::tree_roots, so the cache misses of one task overlap too
// (DESIGN.md, "Batched root climbs"). Path queries stay one per task.
//
// They require a backend whose queries are const (UFO trees, topology
// trees, the oracle). Self-adjusting structures (link-cut trees, splay top
// trees) mutate on read and are rejected at compile time — the same
// distinction the paper draws in Section 6.1 when explaining why UFO query
// throughput beats link-cut trees.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/capabilities.h"
#include "graph/forest.h"
#include "parallel/scheduler.h"

namespace ufo::core {

// A structure whose connectivity/path/subtree queries are all const —
// i.e., safe for unsynchronized concurrent readers.
template <class T>
concept ConstQueryable =
    requires(const T t, Vertex u, Vertex v) {
      { t.connected(u, v) } -> std::convertible_to<bool>;
      { t.path_sum(u, v) } -> std::convertible_to<Weight>;
      { t.path_max(u, v) } -> std::convertible_to<Weight>;
      { t.subtree_sum(u, v) } -> std::convertible_to<Weight>;
    };

using VertexPair = std::pair<Vertex, Vertex>;

// Pairs per parallel_for task in batch_connected's batched root climb.
inline constexpr size_t kClimbBlock = 256;

// answers[i] = t.connected(q[i].first, q[i].second)
template <ConstQueryable Tree>
std::vector<uint8_t> batch_connected(const Tree& t,
                                     const std::vector<VertexPair>& q) {
  std::vector<uint8_t> out(q.size());
  if constexpr (requires(const Vertex* vs, uint32_t* roots) {
                  t.tree_roots(vs, q.size(), roots);
                }) {
    par::parallel_for(0, (q.size() + kClimbBlock - 1) / kClimbBlock,
                      [&](size_t b) {
      const size_t lo = b * kClimbBlock;
      const size_t len = std::min(kClimbBlock, q.size() - lo);
      Vertex vs[2 * kClimbBlock] = {};  // zeroed to quiet -Wmaybe-uninitialized
      uint32_t roots[2 * kClimbBlock];
      for (size_t j = 0; j < len; ++j) {
        vs[2 * j] = q[lo + j].first;
        vs[2 * j + 1] = q[lo + j].second;
      }
      t.tree_roots(vs, 2 * len, roots);
      uint8_t* o = out.data() + lo;
      for (size_t j = 0; j < len; ++j)
        o[j] = roots[2 * j] == roots[2 * j + 1] ? 1 : 0;
    }, 1);
  } else {
    par::parallel_for(0, q.size(), [&](size_t i) {
      out[i] = t.connected(q[i].first, q[i].second) ? 1 : 0;
    });
  }
  return out;
}

// answers[i] = t.path_sum(q[i]) — every pair must be connected.
template <ConstQueryable Tree>
std::vector<Weight> batch_path_sum(const Tree& t,
                                   const std::vector<VertexPair>& q) {
  std::vector<Weight> out(q.size());
  par::parallel_for(0, q.size(), [&](size_t i) {
    out[i] = t.path_sum(q[i].first, q[i].second);
  });
  return out;
}

// answers[i] = t.path_max(q[i]) — every pair must be connected.
template <ConstQueryable Tree>
std::vector<Weight> batch_path_max(const Tree& t,
                                   const std::vector<VertexPair>& q) {
  std::vector<Weight> out(q.size());
  par::parallel_for(0, q.size(), [&](size_t i) {
    out[i] = t.path_max(q[i].first, q[i].second);
  });
  return out;
}

// answers[i] = t.path_length(q[i]) (hop count) — every pair must be
// connected.
template <class Tree>
std::vector<int64_t> batch_path_length(const Tree& t,
                                       const std::vector<VertexPair>& q)
  requires requires(const Tree ct, Vertex x) { ct.path_length(x, x); }
{
  std::vector<int64_t> out(q.size());
  par::parallel_for(0, q.size(), [&](size_t i) {
    out[i] = t.path_length(q[i].first, q[i].second);
  });
  return out;
}

// answers[i] = t.subtree_sum(v, p) for q[i] = (v, p) — (v, p) must be a
// tree edge.
template <ConstQueryable Tree>
std::vector<Weight> batch_subtree_sum(const Tree& t,
                                      const std::vector<VertexPair>& q) {
  std::vector<Weight> out(q.size());
  par::parallel_for(0, q.size(), [&](size_t i) {
    out[i] = t.subtree_sum(q[i].first, q[i].second);
  });
  return out;
}

// answers[i] = t.lca(u, v, r) for q[i] = {u, v, r}.
template <class Tree>
std::vector<Vertex> batch_lca(const Tree& t,
                              const std::vector<std::array<Vertex, 3>>& q)
  requires requires(const Tree ct, Vertex x) { ct.lca(x, x, x); }
{
  std::vector<Vertex> out(q.size());
  par::parallel_for(0, q.size(), [&](size_t i) {
    out[i] = t.lca(q[i][0], q[i][1], q[i][2]);
  });
  return out;
}

}  // namespace ufo::core
