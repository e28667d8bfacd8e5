// Euler-tour trees (Henzinger & King 1995; engineering follows Tseng,
// Dhulipala & Blelloch, ALENEX 2019), templated over a sequence backend.
//
// Each vertex v owns a self-loop element; each tree edge {u, v} owns two arc
// elements (u->v) and (v->u). The Euler tour of every tree in the forest is
// kept as one linear sequence. link/cut are O(1) sequence splits/joins;
// connectivity compares canonical sequence representatives; subtree
// aggregates read the contiguous tour segment between the two arcs of the
// parent edge (ETTs support connectivity and subtree queries only — Table 1).
//
// Sequence backend concept (node ids are uint32_t, 0 = null / empty):
//   uint32_t make(Weight value, bool is_loop);
//   void     erase(uint32_t x);             // x must be a singleton sequence
//   void     set_value(uint32_t x, Weight w);
//   uint32_t find_root(uint32_t x);         // canonical per sequence
//   bool     same_sequence(uint32_t x, uint32_t y);
//   std::pair<uint32_t,uint32_t> split_before(uint32_t x);  // roots (L, R)
//   std::pair<uint32_t,uint32_t> split_after(uint32_t x);
//   uint32_t join(uint32_t a, uint32_t b);  // roots (either may be 0)
//   Weight   total(uint32_t root);          // sum of values
//   size_t   loop_count(uint32_t root);     // #loop elements
//   size_t   memory_bytes() const;
#pragma once

#include <cassert>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/forest.h"

namespace ufo::seq {

template <class Backend>
class EulerTourTree {
 public:
  explicit EulerTourTree(size_t n) : n_(n), loop_(n) {
    for (Vertex v = 0; v < n; ++v) loop_[v] = seq_.make(1, /*is_loop=*/true);
  }

  size_t size() const { return n_; }

  // Vertex weights participate in subtree sums (default 1 per vertex).
  void set_vertex_weight(Vertex v, Weight w) { seq_.set_value(loop_[v], w); }

  void link(Vertex u, Vertex v, Weight /*edge weight; unused by ETT*/ = 1) {
    assert(u != v && !connected(u, v));
    uint32_t a = seq_.make(0, false);  // arc u->v
    uint32_t b = seq_.make(0, false);  // arc v->u
    arcs_[arc_key(u, v)] = a;
    arcs_[arc_key(v, u)] = b;
    uint32_t tu = reroot(u);
    uint32_t tv = reroot(v);
    // New tour: tour(u) (u,v) tour(v) (v,u)
    uint32_t t = seq_.join(tu, a);
    t = seq_.join(t, tv);
    seq_.join(t, b);
  }

  // Batch updates apply their edges one at a time, in batch order. Tseng et
  // al. apply the splits and joins of distinct updates in parallel (they
  // touch disjoint positions); this baseline does not (DESIGN.md
  // deviations).
  void batch_link(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) link(e.u, e.v);
  }

  void batch_cut(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) cut(e.u, e.v);
  }

  void cut(Vertex u, Vertex v) {
    auto ita = arcs_.find(arc_key(u, v));
    auto itb = arcs_.find(arc_key(v, u));
    assert(ita != arcs_.end() && itb != arcs_.end());
    uint32_t a = ita->second, b = itb->second;
    arcs_.erase(ita);
    arcs_.erase(itb);
    // Ensure a precedes b in the linear order.
    auto [prefix, rest] = seq_.split_before(a);
    if (prefix != 0 && seq_.same_sequence(b, prefix)) {
      seq_.join(prefix, rest);
      std::swap(a, b);
      std::tie(prefix, rest) = seq_.split_before(a);
    }
    auto [a_only, after_a] = seq_.split_after(a);
    (void)a_only;
    auto [middle, tail] = seq_.split_before(b);
    (void)middle;  // middle = the cut-off subtree's tour; stays a sequence
    auto [b_only, suffix] = seq_.split_after(b);
    (void)b_only;
    (void)tail;
    seq_.erase(a);
    seq_.erase(b);
    seq_.join(prefix, suffix);
  }

  bool has_edge(Vertex u, Vertex v) const {
    return arcs_.count(arc_key(u, v)) > 0;
  }

  bool connected(Vertex u, Vertex v) {
    if (u == v) return true;
    return seq_.same_sequence(loop_[u], loop_[v]);
  }

  // Sum of vertex weights in the subtree of v when the tree is rooted so
  // that p is v's parent (p, v adjacent).
  Weight subtree_sum(Vertex v, Vertex p) {
    auto [val, cnt] = subtree_segment(v, p);
    (void)cnt;
    return val;
  }

  // Number of vertices in the subtree of v with parent p.
  size_t subtree_size(Vertex v, Vertex p) {
    auto [val, cnt] = subtree_segment(v, p);
    (void)val;
    return cnt;
  }

  // Number of vertices in v's tree.
  size_t component_size(Vertex v) {
    return seq_.loop_count(seq_.find_root(loop_[v]));
  }

  size_t memory_bytes() const {
    return seq_.memory_bytes() + loop_.capacity() * sizeof(uint32_t) +
           arcs_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + 16) +
           sizeof(*this);
  }

 private:
  static uint64_t arc_key(Vertex u, Vertex v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // Rotate v's tour so it starts at v's loop; returns the sequence root.
  uint32_t reroot(Vertex v) {
    auto [left, right] = seq_.split_before(loop_[v]);
    return seq_.join(right, left);
  }

  std::pair<Weight, size_t> subtree_segment(Vertex v, Vertex p) {
    assert(has_edge(p, v));
    // After rerooting at p, the arc (p,v) precedes (v,p), and the segment
    // between them is exactly v's subtree tour.
    reroot(p);
    uint32_t a = arcs_[arc_key(p, v)];
    uint32_t b = arcs_[arc_key(v, p)];
    auto [prefix, rest] = seq_.split_after(a);
    auto [middle, suffix] = seq_.split_before(b);
    (void)rest;
    Weight val = seq_.total(middle);
    size_t cnt = seq_.loop_count(middle);
    uint32_t t = seq_.join(prefix, middle);
    seq_.join(t, suffix);
    return {val, cnt};
  }

  size_t n_;
  Backend seq_;
  std::vector<uint32_t> loop_;
  std::unordered_map<uint64_t, uint32_t> arcs_;
};

}  // namespace ufo::seq
