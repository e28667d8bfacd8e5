// Topology trees (Frederickson 1985/1997), reimplemented per Section 3 of
// the UFO-trees paper with the paper's new update analysis and extended
// query suite (Appendix C.1).
//
// A topology tree is a bottom-up hierarchical clustering of the input tree:
// level 0 holds one leaf cluster per vertex; each level merges a maximal
// matching of cluster pairs along tree edges, with the allowed merges
// (1,1), (1,2), (2,2), (1,3) by cluster degree. Updates delete the ancestors
// of the touched leaves and recluster bottom-up (O(log n), Theorem 3.2).
//
// The input tree must have maximum degree <= 3; arbitrary-degree inputs go
// through the Ternarizer (seq/ternarize.h), exactly as in the paper.
//
// Key structural facts used throughout (proved in the paper):
//   * a degree-3 cluster always has fanout 1, hence is a single vertex;
//   * every cluster has at most two distinct boundary vertices, so all
//     aggregates live in two fixed per-cluster boundary slots.
//
// Supported queries (all read-only): connectivity, path sum/max/length,
// subtree sum/size, LCA, component diameter, center, median, and
// nearest-marked-vertex distance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/forest.h"

namespace ufo::seq {

class TopologyTree {
 public:
  explicit TopologyTree(size_t n);

  size_t size() const { return n_; }

  // --- Updates ------------------------------------------------------------
  // Endpoints must have degree < 3 before link (ternarize otherwise).
  // Single updates are batches of one: they run the batch algorithm below
  // on one stack-held Update.
  void link(Vertex u, Vertex v, Weight w = 1);
  void cut(Vertex u, Vertex v);
  // Batch-dynamic update (Section 5.1 / Algorithm 3 structure): applies a
  // mixed batch with one shared bottom-up reclustering pass. Contract, as
  // for seq::UfoTree: each edge gets at most one update, every deletion
  // names a current edge, and the insertions form a forest together with
  // the current edges minus the batch's deletions (so a batch may cut an
  // edge and link its replacement); and no vertex's degree exceeds 3 as
  // the updates are applied in batch order.
  void batch_update(const std::vector<Update>& batch);
  void batch_link(const std::vector<Edge>& edges);
  void batch_cut(const std::vector<Edge>& edges);
  bool has_edge(Vertex u, Vertex v) const;
  void set_vertex_weight(Vertex v, Weight w);
  void set_mark(Vertex v, bool marked);

  // --- Queries ------------------------------------------------------------
  bool connected(Vertex u, Vertex v) const;
  // Path queries over edge weights; path_length counts hops. u and v must
  // be connected (else: message and abort, every build type). u == v is
  // the empty path: sum 0, length 0, and path_max returns
  // std::numeric_limits<Weight>::min(), as RefForest does.
  Weight path_sum(Vertex u, Vertex v) const;
  Weight path_max(Vertex u, Vertex v) const;
  int64_t path_length(Vertex u, Vertex v) const;
  // Vertex-weight sum / vertex count of v's side of the tree rooted so that
  // p is v's parent. (v, p) must be a forest edge (else: message and abort).
  Weight subtree_sum(Vertex v, Vertex p) const;
  size_t subtree_size(Vertex v, Vertex p) const;
  Vertex lca(Vertex u, Vertex v, Vertex r) const;
  // The merge edge (a, b) of the LCA cluster of u and v: a on u's side,
  // b on v's side; both lie on the u--v path. Used by path selection.
  // u != v, connected (else: message and abort).
  void path_milestone(Vertex u, Vertex v, Vertex* a, Vertex* b) const;
  int64_t component_diameter(Vertex v) const;
  Vertex component_center(Vertex v) const;  // of two centers, the smaller id
  Vertex component_median(Vertex v) const;
  int64_t nearest_marked_distance(Vertex v) const;  // -1 if none

  size_t degree(Vertex v) const;

  // --- Introspection (tests, benchmarks) ----------------------------------
  size_t memory_bytes() const;
  // Height of the topology tree containing v (leaf -> root cluster).
  size_t height(Vertex v) const;
  // Structural invariant check: valid merges, consistent adjacency,
  // maximal clustering at every level. Aborts (returns false) on violation.
  bool check_valid() const;

 private:
  friend class TopologyTreeTestPeer;

  // One adjacency entry of a cluster at its level. The original edge is
  // (my_end, other_end) with my_end inside this cluster; this is how
  // boundary vertices are recovered at query time.
  struct Adj {
    uint32_t nbr = 0;
    Vertex my_end = kNoVertex;
    Vertex other_end = kNoVertex;
    Weight w = 0;
  };

  struct Cluster {
    uint32_t parent = 0;
    int32_t level = 0;
    Vertex leaf_vertex = kNoVertex;  // set iff level == 0
    std::vector<Adj> nbrs;           // size <= 3
    std::vector<uint32_t> children;  // size <= 2; empty iff leaf

    // Merge edge that joined children[0] and children[1] (fanout-2 only):
    // endpoints inside each child plus weight.
    Vertex merge_u = kNoVertex;  // inside children[0]
    Vertex merge_v = kNoVertex;  // inside children[1]
    Weight merge_w = 0;

    // --- Aggregates over the cluster's contents ---
    uint32_t n_verts = 1;
    Weight sub_sum = 0;  // sum of vertex weights
    // Cluster path (between the two boundary vertices; identity if not
    // binary or the boundaries coincide).
    Weight path_sum = 0;
    Weight path_max = kNegInf;
    int64_t path_len = 0;
    // Two boundary slots: boundary vertex id + distance aggregates.
    Vertex bv[2] = {kNoVertex, kNoVertex};
    int64_t max_dist[2] = {0, 0};   // max distance from bv[i] into cluster
    int64_t sum_dist[2] = {0, 0};   // sum of weight * distance from bv[i]
    int64_t marked_dist[2] = {kInf, kInf};  // min dist from bv[i] to a mark
    int64_t diam = 0;               // max path length within cluster
    uint32_t marked_count = 0;
  };

  static constexpr Weight kNegInf = INT64_MIN / 4;
  static constexpr int64_t kInf = INT64_MAX / 4;

  uint32_t leaf_id(Vertex v) const { return v + 1; }
  uint32_t alloc_cluster(int32_t level);
  void free_cluster(uint32_t c);

  bool adj_contains(uint32_t c, uint32_t d) const;
  void adj_remove(uint32_t c, uint32_t d);

  // Root cluster of the topology tree containing leaf cluster of v.
  uint32_t tree_root(Vertex v) const;

  // --- update machinery ---
  // The one update routine behind link, cut and batch_update.
  void update(std::span<const Update> batch);
  void delete_ancestors(uint32_t c);
  void recluster();
  void attach_to_existing_parent(uint32_t x, uint32_t y);
  uint32_t new_parent_pair(uint32_t x, uint32_t y, const Adj& edge);
  uint32_t new_parent_single(uint32_t x);
  void rebuild_adjacency(uint32_t p);
  void recompute_aggregates(uint32_t p);
  void refresh_leaf(uint32_t leaf);
  void add_root(uint32_t c);

  // --- query helpers ---
  struct PathAgg {  // f over one path: edge-weight sum and max, hop count
    Weight sum = 0;
    Weight max = kNegInf;
    int64_t len = 0;
  };
  struct RepPath {  // value of f over path from the query vertex to bv[i]
    Weight sum[2] = {0, 0};
    Weight max[2] = {kNegInf, kNegInf};
    int64_t len[2] = {0, 0};
  };
  struct SubtreeAgg {  // vertex-weight sum and vertex count
    Weight sum = 0;
    size_t size = 0;
  };
  // Climb from leaf `from` up to (excluding) cluster `stop` (0 = to the
  // root), maintaining representative paths. Before each step from c into
  // its parent p, calls visit(c, p, rp) with rp keyed by c's boundary
  // slots. Returns values keyed by the boundary slots of the topmost
  // cluster reached, along with that cluster's id.
  template <class Visit>
  RepPath climb_rep_path(Vertex from, uint32_t stop, uint32_t* child,
                         Visit&& visit) const;
  // Lowest common ancestor cluster; 0 if a and b lie in different trees.
  uint32_t lca_cluster(uint32_t a, uint32_t b) const;
  int boundary_slot(const Cluster& c, Vertex bv) const;
  // The one walk per query family; each aborts naming `query` when the
  // public query's precondition fails.
  PathAgg path_agg(Vertex u, Vertex v, const char* query) const;
  SubtreeAgg subtree_agg(Vertex v, Vertex p, const char* query) const;

  size_t n_;
  std::vector<Cluster> clusters_;
  std::vector<uint32_t> free_;
  std::vector<Weight> vweight_;
  std::vector<uint8_t> marked_;
  // Update-scoped scratch: root clusters per level and the batch's
  // distinct endpoints.
  std::vector<std::vector<uint32_t>> roots_;
  std::vector<Vertex> endpoints_;
};

}  // namespace ufo::seq
