// UFO trees (unbounded fan-out trees) — the paper's core contribution
// (Section 4). A contraction-based dynamic tree that handles arbitrary
// vertex degrees directly (no ternarization) by allowing a high-degree
// (>= 3) cluster to merge with *all* of its degree-1 neighbors in one round,
// alongside the usual (1,1), (1,2), (2,2) pair merges.
//
// Height is O(min{log n, ceil(D/2)}) (Theorems 4.1/4.2), and updates run in
// O(min{log n, D}) (Theorem 4.3) because the update algorithm never deletes
// high-degree (>= 3 neighbors) or high-fanout (>= 3 children) clusters
// (Algorithm 1); low-degree clusters on the ancestor path are instead
// disconnected from surviving parents and reclustered.
//
// The cluster structure, aggregate maintenance, and the full query suite
// (connectivity, path sum/max/length, subtree sum/size, LCA, component
// diameter / center / median, nearest-marked-vertex — App. C.2) live in
// core::UfoCore, shared with the parallel batch-dynamic backend
// (src/parallel/par_ufo_tree.h). This class adds the *sequential* update
// algorithms: Algorithm 1 (DeleteAncestors with the high-degree /
// high-fanout survival guard), Algorithm 2 (update with high-degree
// reclustering), and the shared-reclustering batch variant (Section 5.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ufo_core.h"
#include "graph/forest.h"

namespace ufo::seq {

class UfoTree : public core::UfoCore {
 public:
  // kAll (the default) maintains every aggregate the query suite reads;
  // kSize keeps component sizes only (see core::Aggregates).
  explicit UfoTree(size_t n, core::Aggregates a = core::Aggregates::kAll);

  // --- Updates (any degree allowed) ----------------------------------------
  // Single updates are batches of one: they run the batch algorithm below
  // on one stack-held Update.
  void link(Vertex u, Vertex v, Weight w = 1);
  void cut(Vertex u, Vertex v);
  // Batch-dynamic update (Section 5.2 / Algorithm 4 structure): applies a
  // mixed batch of insertions and deletions with ONE shared bottom-up
  // reclustering pass, so the per-level work of overlapping updates is
  // shared. Contract: each edge gets at most one update, every deletion
  // names a current edge, and the insertions form a forest together with
  // the current edges minus the batch's deletions. So one batch may cut an
  // edge and link a replacement between the two sides it separates.
  void batch_update(const std::vector<Update>& batch);
  void batch_link(const std::vector<Edge>& edges);
  void batch_cut(const std::vector<Edge>& edges);

 private:
  // The one update routine behind link, cut and batch_update.
  void update(std::span<const Update> batch);
  void add_root(uint32_t c);
  void mark_dirty(uint32_t c);

  // Algorithm 1: walk up from c deleting low-degree/low-fanout ancestors;
  // surviving ancestors keep high-degree children attached and shed
  // low-degree ones. c itself is detached (and rooted) iff its degree <= 2
  // or its parent chain was deleted.
  void delete_ancestors(uint32_t c);
  // Fallback used by validity repair: deletes *every* ancestor of c
  // unconditionally (the topology-tree rule) and roots c.
  void delete_ancestors_all(uint32_t c);
  // Degree drift from multi-level edge updates can invalidate a preserved
  // merge (e.g. a rake gaining a second edge, or a cluster gaining a third
  // boundary vertex). repair() checks c's boundary invariant and its role
  // under its parent, dissolving/reclustering on violation.
  void repair(uint32_t c);
  // Root c's children, remove its adjacency, and free it.
  void dissolve(uint32_t c);
  // Insert (or remove) the edge between the ancestor chains of u and v at
  // every level where both sides have distinct clusters.
  void edge_walk(Vertex u, Vertex v, Weight w, bool insert);
  void recluster();
  void rebuild_adjacency(uint32_t p, std::vector<uint32_t>* touched);
  void flush_dirty();

  // Update-scoped scratch.
  std::vector<std::vector<uint32_t>> roots_;
  std::vector<uint32_t> dirty_;
  std::vector<std::vector<uint32_t>> levels_;  // flush_dirty's buckets
  std::vector<Vertex> endpoints_;  // distinct endpoints of the batch
};

}  // namespace ufo::seq
