// Parallel batch queries.
//
// Section 3.3/4.2 of the paper: contraction-tree queries are read-only, so
// "any number of queries can be run in parallel with no synchronization."
// These helpers exploit exactly that: they fan a batch of independent
// queries across the fork-join pool with one parallel_for and no locking.
// On a UfoCore-based tree, batch_connected and the path family go one step
// further: each task takes a block of pairs and climbs them together
// (UfoCore::tree_roots to the roots, UfoCore::path_queries to the LCAs), so
// the cache misses of one task overlap too (DESIGN.md, "Batched root
// climbs"). Other trees answer one query per index.
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
#include "core/ufo_core.h"
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

// Pairs per parallel_for task in the batched root and LCA climbs.
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

// answers[i] = the `kind` path query on q[i]: UfoCore::path_queries on one
// block of kClimbBlock pairs per task where the tree has it, else
// scalar(u, v) per index.
template <class Tree, class Scalar>
std::vector<int64_t> batch_path(const Tree& t,
                                const std::vector<VertexPair>& q,
                                PathQuery kind, Scalar&& scalar) {
  std::vector<int64_t> out(q.size());
  if constexpr (requires { t.path_queries(q.data(), q.size(), kind,
                                          out.data()); }) {
    par::parallel_for(0, (q.size() + kClimbBlock - 1) / kClimbBlock,
                      [&](size_t b) {
      const size_t lo = b * kClimbBlock;
      t.path_queries(q.data() + lo, std::min(kClimbBlock, q.size() - lo),
                     kind, out.data() + lo);
    }, 1);
  } else {
    par::parallel_for(0, q.size(), [&](size_t i) {
      out[i] = scalar(q[i].first, q[i].second);
    });
  }
  return out;
}

// answers[i] = t.path_sum(q[i]) — every pair must be connected.
template <ConstQueryable Tree>
std::vector<Weight> batch_path_sum(const Tree& t,
                                   const std::vector<VertexPair>& q) {
  return batch_path(t, q, PathQuery::kSum,
                    [&](Vertex u, Vertex v) { return t.path_sum(u, v); });
}

// answers[i] = t.path_max(q[i]) — every pair must be connected.
template <ConstQueryable Tree>
std::vector<Weight> batch_path_max(const Tree& t,
                                   const std::vector<VertexPair>& q) {
  return batch_path(t, q, PathQuery::kMax,
                    [&](Vertex u, Vertex v) { return t.path_max(u, v); });
}

// answers[i] = t.path_length(q[i]) (hop count) — every pair must be
// connected.
template <class Tree>
std::vector<int64_t> batch_path_length(const Tree& t,
                                       const std::vector<VertexPair>& q)
  requires requires(const Tree ct, Vertex x) { ct.path_length(x, x); }
{
  return batch_path(t, q, PathQuery::kLength,
                    [&](Vertex u, Vertex v) { return t.path_length(u, v); });
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
