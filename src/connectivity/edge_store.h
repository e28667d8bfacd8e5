// Per-vertex adjacency store on the phase-concurrent hash set
// (ConcurrentSet in parallel/hash_table.h). The connectivity subsystem keeps
// one for the non-tree edges awaiting promotion as replacement edges; tree
// edges live only in the spanning forest's leaf adjacency.
//
// Concurrency model matches the hash set's: lookups/inserts/erases are safe
// within a phase, capacity growth happens only at phase boundaries
// (try_reserve_batch before a concurrent insert phase). The sequential
// insert() grows on demand.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "graph/forest.h"
#include "parallel/hash_table.h"
#include "parallel/primitives.h"

namespace ufo::conn {

class EdgeStore {
 public:
  explicit EdgeStore(size_t n) : adj_(n) {}

  EdgeStore(const EdgeStore& other)
      : adj_(other.adj_), edges_(other.edges_.load()) {}
  EdgeStore& operator=(const EdgeStore& other) {
    if (this != &other) {
      adj_ = other.adj_;
      edges_.store(other.edges_.load());
    }
    return *this;
  }

  size_t size() const { return adj_.size(); }  // vertex count
  // Number of undirected edges currently stored.
  size_t edges() const { return edges_.load(std::memory_order_relaxed); }
  size_t degree(Vertex v) const { return adj_[v].size(); }

  bool contains(Vertex u, Vertex v) const { return adj_[u].contains(v); }

  // Sequential insert; grows the endpoint sets as needed. Returns true iff
  // the edge was absent.
  bool insert(Vertex u, Vertex v) {
    adj_[u].reserve(1);
    adj_[v].reserve(1);
    return insert_concurrent(u, v);
  }

  // Phase-concurrent insert: distinct edges may be inserted from parallel
  // tasks, provided try_reserve_batch() covered the endpoints at the
  // preceding phase boundary.
  bool insert_concurrent(Vertex u, Vertex v) {
    bool fresh = adj_[u].insert(v);
    adj_[v].insert(u);
    if (fresh) edges_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  // Phase-concurrent erase (tombstones). Returns true iff the edge existed.
  bool erase(Vertex u, Vertex v) {
    bool had = adj_[u].erase(v);
    adj_[v].erase(u);
    if (had) edges_.fetch_sub(1, std::memory_order_relaxed);
    return had;
  }

  template <class F>
  void for_each_neighbor(Vertex v, F&& f) const {
    adj_[v].for_each([&](uint64_t key) { f(static_cast<Vertex>(key)); });
  }

  // Phase boundary: grow every endpoint's set so a following concurrent
  // insert phase over `edges` cannot overflow. Returns false as soon as one
  // endpoint's growth fails; every set is still valid (try_reserve leaves a
  // set untouched on failure), so the caller can fall back to sequential
  // per-edge inserts.
  bool try_reserve_batch(const EdgeList& edges) {
    // One reservation per distinct endpoint, of its group's size.
    par::Groups<Vertex> g = par::group_by(
        2 * edges.size(), [&](size_t j) { return endpoint(edges, j); });
    for (size_t q = 0; q < g.keys.size(); ++q)
      if (!adj_[g.keys[q]].try_reserve(g.start[q + 1] - g.start[q]))
        return false;
    return true;
  }

  size_t memory_bytes() const {
    size_t total = sizeof(*this) + adj_.capacity() * sizeof(adj_[0]);
    for (const auto& s : adj_) total += s.memory_bytes();
    return total;
  }

 private:
  std::vector<par::ConcurrentSet> adj_;
  std::atomic<size_t> edges_{0};
};

}  // namespace ufo::conn
