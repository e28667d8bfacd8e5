// Capability concepts for dynamic-tree structures.
//
// Table 1 of the paper classifies dynamic trees by the operations they
// support. These concepts encode that taxonomy so generic code (the
// connectivity layer, the typed test suites, the benchmark harness) can
// dispatch on what a structure can do at compile time:
//
//   DynamicTree      link/cut/connectivity — every structure (Table 1 col 1)
//   PathQueryable    path sum/max (link-cut trees and richer)
//   SubtreeQueryable subtree aggregates (ETTs, top trees, contraction trees)
//   BatchDynamic     batch_link/batch_cut/batch_update (Section 5)
//   NonLocalQueryable LCA/diameter/center/median/nearest-marked (App. C)
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/forest.h"

namespace ufo::core {

template <class T>
concept DynamicTree = requires(T t, const T ct, Vertex u, Vertex v, Weight w) {
  { T(size_t{8}) };
  { ct.size() } -> std::convertible_to<size_t>;
  { t.link(u, v, w) };
  { t.cut(u, v) };
  { t.connected(u, v) } -> std::convertible_to<bool>;
};

template <class T>
concept PathQueryable = DynamicTree<T> && requires(T t, Vertex u, Vertex v) {
  { t.path_sum(u, v) } -> std::convertible_to<Weight>;
  { t.path_max(u, v) } -> std::convertible_to<Weight>;
};

template <class T>
concept SubtreeQueryable =
    DynamicTree<T> && requires(T t, Vertex v, Vertex p, Weight w) {
      { t.subtree_sum(v, p) } -> std::convertible_to<Weight>;
      { t.set_vertex_weight(v, w) };
    };

template <class T>
concept BatchDynamic =
    DynamicTree<T> && requires(T t, const std::vector<Edge>& edges,
                               const std::vector<Update>& batch) {
      { t.batch_link(edges) };
      { t.batch_cut(edges) };
      { t.batch_update(batch) };
    };

template <class T>
concept NonLocalQueryable =
    DynamicTree<T> && requires(T t, Vertex u, Vertex v, Vertex r, bool m) {
      { t.lca(u, v, r) } -> std::convertible_to<Vertex>;
      { t.component_diameter(v) } -> std::convertible_to<int64_t>;
      { t.component_center(v) } -> std::convertible_to<Vertex>;
      { t.component_median(v) } -> std::convertible_to<Vertex>;
      { t.set_mark(v, m) };
      { t.nearest_marked_distance(v) } -> std::convertible_to<int64_t>;
    };

// The full query surface of Table 1's UFO tree row.
template <class T>
concept FullDynamicTree =
    PathQueryable<T> && SubtreeQueryable<T> && NonLocalQueryable<T>;

// The vertex at hop distance k (0 <= k <= path_length(from, to)) from
// `from` on the from--to path, over a tree's public path_milestone and
// path_length; both contraction trees' lca call it. Each round either
// returns an end of the milestone edge or shrinks the path to one that lies
// inside a child of the previous LCA cluster, so there are O(height) rounds
// of one distance query each.
template <class Tree>
Vertex path_select(const Tree& t, Vertex from, Vertex to, int64_t k) {
  while (k > 0) {
    Vertex a = kNoVertex, b = kNoVertex;
    t.path_milestone(from, to, &a, &b);
    const int64_t da = a == from ? 0 : t.path_length(from, a);
    if (k < da) {
      to = a;  // the target lies strictly inside [from, a)
      continue;
    }
    if (k == da) return a;
    if (k == da + 1) return b;
    from = b;
    k -= da + 1;
  }
  return from;
}

// General-graph connectivity (src/connectivity/): unlike DynamicTree, edges
// may form cycles — the structure maintains a spanning forest internally and
// answers connectivity over the whole graph. insert/erase return whether the
// edge set actually changed; batch operations accept arbitrary edge lists
// (duplicates and already-present/absent edges are filtered, cycles demoted
// to non-tree edges), so callers need no Section 5 independence staging of
// their own.
template <class T>
concept GraphConnectivity =
    requires(T g, const T cg, Vertex u, Vertex v, Weight w,
             const EdgeList& edges) {
      { T(size_t{8}) };
      { cg.size() } -> std::convertible_to<size_t>;
      { g.insert(u, v, w) } -> std::convertible_to<bool>;
      { g.erase(u, v) } -> std::convertible_to<bool>;
      { g.batch_insert(edges) };
      { g.batch_erase(edges) };
      { cg.connected(u, v) } -> std::convertible_to<bool>;
      { cg.has_edge(u, v) } -> std::convertible_to<bool>;
      { cg.component_size(u) } -> std::convertible_to<size_t>;
      { cg.num_components() } -> std::convertible_to<size_t>;
      { cg.num_edges() } -> std::convertible_to<size_t>;
    };

}  // namespace ufo::core
