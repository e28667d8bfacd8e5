// UfoCore: the cluster hierarchy shared by every UFO-tree backend.
//
// Both the sequential UFO tree (src/seq/ufo_tree.h) and the parallel
// batch-dynamic one (src/parallel/par_ufo_tree.h) maintain the same
// contraction structure — a forest of clusters where each internal cluster
// is a pair merge (two adjacent children joined across a recorded merge
// edge), a fanout-1 extension, or a superunary (high-degree) merge of a
// center child with its degree-1 rake neighbors. Everything that depends
// only on that structure lives here:
//
//   * the cluster pools (allocation, adjacency, parent/child bookkeeping);
//   * aggregate maintenance (recompute_aggregates and the incremental rake
//     index standing in for the paper's rank trees, Section 4.2);
//   * the entire query suite (App. C.2): path sum/max/length, subtree
//     sum/size, LCA, diameter/center/median, nearest-marked-vertex;
//   * the validity and aggregate audits used by the tests.
//
// What the backends add is the *update* algorithm: seq::UfoTree implements
// Algorithms 1-2 (ancestor deletion + greedy reclustering), par::UfoTree the
// level-synchronous parallel batch variant (Section 5). Any hierarchy that
// satisfies the structural invariants below answers queries correctly
// through this base, which is what lets the two backends share code and the
// tests compare them differentially.
//
// Structural invariants relied on throughout (see DESIGN.md):
//   * every cluster has at most two distinct boundary vertices;
//   * clusters with >= 3 incident edges (superunary) have exactly one
//     boundary vertex — their "center" — and arise only from high-degree
//     merges, whose center child is recorded in `center_child`;
//   * pair merges (fanout 2, center_child == 0) record their merge edge;
//   * children of a cluster live exactly one level below it, and adjacency
//     only ever connects clusters of the same level.
//
// Storage is structure-of-arrays (DESIGN.md, "Memory layout"): a 64-byte
// hot topology record per cluster (everything the contraction / teardown /
// query-climb loops touch), a 16-byte size record, a cold aggregates record
// touched only by recompute_aggregates and query leaves, and pooled slab
// storage for adjacency lists, children lists, adjacency hash indexes, and
// rake indexes. The cold records and rake indexes exist only in the
// Aggregates::kAll tier; a kSize forest keeps sizes alone and answers only
// the connectivity and size queries. Slabs are index-addressed and recycled
// through per-level freelists, so bulk teardown is a freelist splice
// instead of per-cluster container destruction, and pointers into a slab
// stay valid across any other allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cluster_pool.h"
#include "core/invariants.h"
#include "core/sorted_bag.h"
#include "graph/forest.h"

namespace ufo::recovery {
class ForestSerializer;  // checkpointing (src/recovery/snapshot.h)
}

namespace ufo::core {

// Aggregate tier, fixed at construction. kSize maintains only component
// sizes (the size record); kAll adds the cold record and rake indexes that
// the path, subtree and non-local queries read.
enum class Aggregates : uint8_t { kSize, kAll };

using VertexPair = std::pair<Vertex, Vertex>;

// Which aggregate UfoCore::path_queries answers: the path_sum, path_max
// or path_length of each pair.
enum class PathQuery : uint8_t { kSum, kMax, kLength };

class UfoCore {
 public:
  size_t size() const { return n_; }

  bool has_edge(Vertex u, Vertex v) const;
  size_t degree(Vertex v) const;
  // Calls f(y) for every forest neighbour y of v: a walk over v's leaf
  // adjacency, O(degree). Read phases only.
  template <class F>
  void for_each_neighbor(Vertex v, F&& f) const {
    for (const Adj& a : nbrs(leaf_id(v))) f(a.other_end);
  }
  // On a kSize forest these only store the annotation.
  void set_vertex_weight(Vertex v, Weight w);
  void set_mark(Vertex v, bool marked);

  // --- Queries --------------------------------------------------------------
  // connected, component_id, component_size (and height, degree, has_edge,
  // for_each_neighbor) work in both tiers; every other query prints a
  // message and aborts on a kSize forest.
  bool connected(Vertex u, Vertex v) const;
  // Opaque identifier of v's component: equal for two vertices iff they are
  // connected. Only valid until the next update (the id is the component's
  // current root cluster). Lets a caller canonicalize endpoints without
  // pairwise queries; bulk callers use tree_roots.
  uint64_t component_id(Vertex v) const { return tree_root(v); }
  // Batched root climb: out[i] = component_id(vs[i]) for i < n, in the same
  // validity window. Climbs groups of kRootGroup chains in lockstep, one
  // parent load per chain per sweep, so the loads of a sweep are
  // independent and their cache misses overlap instead of queueing one
  // level at a time (DESIGN.md, "Batched root climbs"). Reads only the hot
  // records, so it works in both tiers.
  static constexpr size_t kRootGroup = 64;
  void tree_roots(const Vertex* vs, size_t n, uint32_t* out) const;
  // Number of vertices in v's component: the root cluster's n_verts, O(height).
  size_t component_size(Vertex v) const { return sizes_[tree_root(v)].n_verts; }
  // Path queries over edge weights; path_length counts hops. u and v must
  // be connected (else: message and abort, every build type). u == v is
  // the empty path: sum 0, length 0, and path_max returns
  // std::numeric_limits<Weight>::min(), as RefForest does. Each is a
  // group of one in path_queries.
  Weight path_sum(Vertex u, Vertex v) const;
  Weight path_max(Vertex u, Vertex v) const;
  int64_t path_length(Vertex u, Vertex v) const;
  // Batched path queries: out[i] = the `kind` query on q[i] for i < n,
  // under the scalar rules above. Climbs groups of kRootGroup pairs to
  // their LCA clusters in lockstep, as tree_roots climbs to the roots,
  // then walks each pair's path up to its LCA while the climbed hot
  // records are still cached (DESIGN.md, "Batched root climbs").
  void path_queries(const VertexPair* q, size_t n, PathQuery kind,
                    int64_t* out) const;
  // Vertex-weight sum / vertex count of v's side of the tree rooted so that
  // p is v's parent. (v, p) must be a forest edge (else: message and abort).
  Weight subtree_sum(Vertex v, Vertex p) const;
  size_t subtree_size(Vertex v, Vertex p) const;
  Vertex lca(Vertex u, Vertex v, Vertex r) const;
  // An edge (a, b) of the u--v path that joins two children of their LCA
  // cluster: a on u's side, b on v's side. Used by path selection.
  // u != v, connected (else: message and abort).
  void path_milestone(Vertex u, Vertex v, Vertex* a, Vertex* b) const;
  int64_t component_diameter(Vertex v) const;
  Vertex component_center(Vertex v) const;  // of two centers, the smaller id
  Vertex component_median(Vertex v) const;
  int64_t nearest_marked_distance(Vertex v) const;

  // --- Introspection ---------------------------------------------------------
  // Exact per-pool accounting (every heap byte the structure holds,
  // including recycled-but-retained slab and rake-index capacity).
  struct MemoryBreakdown {
    size_t hot = 0;        // hot topology records (capacity)
    size_t cold = 0;       // size + cold aggregate records (capacity)
    size_t adjacency = 0;  // pooled adjacency slabs
    size_t children = 0;   // pooled children slabs
    size_t adj_index = 0;  // pooled high-degree adjacency hash indexes
    size_t rake = 0;       // pooled rake indexes (objects + bag heap)
    size_t other = 0;      // object header, freelists, vertex arrays
    size_t clusters = 0;   // live cluster count (not bytes)
    size_t total() const {
      return hot + cold + adjacency + children + adj_index + rake + other;
    }
  };
  MemoryBreakdown memory_breakdown() const;
  size_t memory_bytes() const { return memory_breakdown().total(); }
  size_t live_clusters() const { return live_clusters_; }
  size_t height(Vertex v) const;
  // Full structural audit. Returns every violated invariant (failure code,
  // cluster id) instead of printing; check_valid() wraps it for tests.
  InvariantReport validate() const;
  bool check_valid() const;
  // Recomputes every cluster's aggregates bottom-up and compares with the
  // maintained values; returns false (and reports) on any divergence.
  bool check_aggregates();

 protected:
  UfoCore(size_t n, Aggregates a);
  UfoCore(const UfoCore&) = delete;
  UfoCore& operator=(const UfoCore&) = delete;

  // The snapshot subsystem is the one external reader/writer of the pools;
  // it dumps logical records and rebuilds all derived state on load.
  friend class ufo::recovery::ForestSerializer;

  struct Adj {
    uint32_t nbr = 0;
    Vertex my_end = kNoVertex;
    Vertex other_end = kNoVertex;
    Weight w = 0;
  };

  static constexpr Weight kNegInf = INT64_MIN / 4;
  static constexpr int64_t kInf = INT64_MAX / 4;
  static constexpr int32_t kFreedLevel = -1;

  // Slab reference: head handle into a pool, live prefix size, power-of-two
  // capacity. 12 bytes; lives inline in the hot record.
  struct ListRef {
    uint32_t head = kNullSlab;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  // Hot topology record: exactly one cache line. Touched by every climb,
  // contraction round, and teardown walk. merge_w leads so the 8-byte field
  // sets the alignment and nothing pads.
  struct alignas(64) Hot {
    Weight merge_w = 0;          // pair-merge edge weight
    uint32_t parent = 0;
    uint32_t pos_in_parent = 0;  // index in parent's children slab
    int32_t level = 0;
    Vertex leaf_vertex = kNoVertex;
    uint32_t center_child = 0;   // nonzero => superunary (high-degree) merge
    Vertex merge_u = kNoVertex;  // inside children[0] (pair merges only)
    Vertex merge_v = kNoVertex;  // inside children[1]
    ListRef nbrs;                // slab in adj_pool_
    ListRef children;            // slab in child_pool_
    // Hash index over nbrs for high-degree clusters (slab in idx_pool_,
    // capacity always 2 * nbrs.cap); kNullSlab below the degree threshold.
    uint32_t adj_index = kNullSlab;
  };
  static_assert(sizeof(Hot) == 64, "hot record must be one cache line");

  // Size record, present in both tiers: the only aggregate the connectivity
  // layer reads, plus the size part of the rake-index bookkeeping.
  struct SizeRec {
    uint32_t n_verts = 1;
    // n_verts as last added to a superunary parent's rake total.
    uint32_t contrib_nverts = 0;
    // Superunary clusters: sum of the rakes' contrib_nverts.
    uint32_t rake_nverts = 0;
    // Superunary clusters: the rake total (and, in kAll, the rake index
    // bags) are current. Validity gates the contents, not the allocation.
    bool rake_index_valid = false;
  };
  static_assert(sizeof(SizeRec) <= 16, "size record must stay small");

  // The kAll part of what a rake adds to its superunary parent's rake
  // index (the size part is SizeRec::contrib_nverts).
  struct RakeContrib {
    int64_t depth = 0;    // 1 + max_dist at the rake's boundary
    int64_t mark = 0;     // 1 + marked_dist there; kInf when none
    int64_t sumdist = 0;  // sum_dist there + sub_sum
    Weight sub = 0;       // sub_sum
    // A diameter is at most n - 1 hops, so 32 bits hold it; this keeps a
    // kAll cluster's size + cold records within 160 bytes.
    uint32_t diam = 0;
    uint32_t marked = 0;  // marked_count
    bool operator==(const RakeContrib&) const = default;
  };

  // Cold aggregates record (kAll only): the rest of TopologyTree's
  // quantities (see topology_tree.h) plus the rake-index handle and the
  // cached contribution this cluster last pushed into a superunary parent's
  // rake index.
  struct Cold {
    Weight sub_sum = 0;
    Weight path_sum = 0;
    Weight path_max = kNegInf;
    int64_t path_len = 0;
    int64_t diam = 0;
    int64_t max_dist[2] = {0, 0};
    int64_t sum_dist[2] = {0, 0};
    int64_t marked_dist[2] = {kInf, kInf};
    RakeContrib contrib;
    uint32_t marked_count = 0;
    Vertex bv[2] = {kNoVertex, kNoVertex};
    // Rake index handle into rake_pool_ (superunary clusters only;
    // allocated lazily, recycled with the cluster).
    uint32_t rake = kNullSlab;
  };
  static_assert(sizeof(SizeRec) + sizeof(Cold) <= 160,
                "a kAll cluster's aggregate records must fit in 160 bytes");

  // Incremental rake index for one superunary cluster, standing in for the
  // paper's rank trees (Section 4.2): key -> count bags index the
  // non-invertible rake contributions, whose ends (min, max, top two) are
  // all the aggregates read; running totals cover the invertible parts (the
  // size total lives in SizeRec::rake_nverts); each rake caches the
  // contribution it last added (Cold::contrib), so removal is exact.
  // kAll only.
  struct RakeIndex {
    SortedBag depths;  // 1 + rake.max_dist
    SortedBag marks;   // 1 + rake.marked_dist (finite only)
    SortedBag diams;   // rake.diam
    Weight sub_total = 0;
    int64_t sumdist_total = 0;
    uint32_t marked_total = 0;
    void clear() {
      depths.clear();
      marks.clear();
      diams.clear();
      sub_total = 0;
      sumdist_total = 0;
      marked_total = 0;
    }
    size_t memory_bytes() const {
      return depths.memory_bytes() + marks.memory_bytes() +
             diams.memory_bytes();
    }
  };

  uint32_t leaf_id(Vertex v) const { return v + 1; }
  // Number of cluster-record slots (hot_/sizes_ length), the bound for id
  // scans and scratch sizing. Cluster ids are 1..pool_size()-1; slot 0 is
  // the null cluster.
  uint32_t pool_size() const { return static_cast<uint32_t>(hot_.size()); }

  uint32_t alloc_cluster(int32_t level);
  void free_cluster(uint32_t c);
  // Recycle + mark freed without touching the free list (bulk teardown from
  // parallel phases recycles concurrently, then appends ids serially).
  void reset_cluster(uint32_t c);
  // Bulk teardown recycle: reset every cluster's records in parallel, then
  // splice all their slabs into the pool freelists and append the ids to
  // the cluster free list serially. The ids must be distinct and alive.
  void recycle_clusters(const std::vector<uint32_t>& ids);
  bool alive(uint32_t c) const { return hot_[c].level >= 0; }

  // --- Pooled list access ---------------------------------------------------
  // Spans stay valid across cluster allocation and across growth of *other*
  // clusters' lists (slab segments never move); they are invalidated only
  // by mutation of the same cluster's same list.
  Span<const Adj> nbrs(uint32_t c) const {
    const ListRef& l = hot_[c].nbrs;
    return {l.size ? adj_pool_.ptr(l.head) : nullptr, l.size};
  }
  Span<const uint32_t> children(uint32_t c) const {
    const ListRef& l = hot_[c].children;
    return {l.size ? child_pool_.ptr(l.head) : nullptr, l.size};
  }
  size_t fanout(uint32_t c) const { return hot_[c].children.size; }

  void nbrs_push(uint32_t c, const Adj& a);
  // Ensure capacity for `total` entries before a run of pushes.
  void nbrs_reserve(uint32_t c, uint32_t total);
  // Drop all entries (keeps the slab; frees the hash index).
  void nbrs_clear(uint32_t c);

  bool adj_contains(uint32_t c, uint32_t d) const;
  const Adj* adj_find(uint32_t c, uint32_t d) const;
  void adj_remove(uint32_t c, uint32_t d);
  // Remove every entry whose nbr is in `targets` (sorted, all present).
  // O(targets) when c carries a hash index, O(degree + targets) otherwise —
  // the high-degree-hub case the adjacency index exists for.
  void adj_remove_batch(uint32_t c, Span<const uint32_t> targets);

  uint32_t tree_root(Vertex v) const;
  // children bookkeeping with O(1) positional removal (superunary clusters
  // can have Theta(n) children; a linear scan per detach would be O(n^2)
  // over a star teardown). Both keep p's rake index in sync: a non-center
  // child of a superunary parent whose index is valid is in that index.
  void add_child(uint32_t p, uint32_t c);
  void remove_child(uint32_t p, uint32_t c);

  void refresh_leaf(uint32_t leaf);
  void recompute_aggregates(uint32_t p);
  // Whether c is in p's rake index: c is a non-center child of superunary p
  // and p's index is valid.
  bool rake_indexed(uint32_t p, uint32_t c) const {
    return hot_[p].center_child != 0 && hot_[p].center_child != c &&
           sizes_[p].rake_index_valid;
  }
  // Re-cache indexed rake r's contribution after its aggregates changed,
  // O(log distinct keys); O(1) when the contribution is unchanged.
  void rake_index_refresh(uint32_t p, uint32_t r);
  // Clear p's rake index and add every non-center child; marks it valid.
  // The only rebuild recompute_aggregates uses.
  void rake_index_build(uint32_t p);
  // Recompute p's aggregates from the valid rake index + fresh center
  // values, without touching the rake children.
  void recompute_from_rake_index(uint32_t p);
  // Recompute c and every ancestor, refreshing c's (and each ancestor's)
  // cached contribution in superunary parents' rake indexes on the way up.
  void recompute_chain(uint32_t c);
  // Recompute id from its children (rebuilding a rake index from scratch)
  // and report whether the maintained values matched; prints the drift to
  // stderr when `report`. The check behind check_aggregates and snapshot
  // verification.
  bool recompute_matches(uint32_t id, bool report);

  // f over one path: edge-weight sum and max, hop count.
  struct PathAgg {
    Weight sum = 0;
    Weight max = kNegInf;
    int64_t len = 0;
  };
  // f over the path from the query vertex to each boundary slot.
  struct RepPath {
    Weight sum[2] = {0, 0};
    Weight max[2] = {kNegInf, kNegInf};
    int64_t len[2] = {0, 0};
  };
  // Climbs from the leaf of `from` up to (excluding) cluster `stop` (0 =
  // to the root), maintaining f over the paths from `from` to the current
  // cluster's boundary vertices. Before each step from c into its parent p,
  // calls visit(c, p, rp) with rp keyed by c's boundary slots. On return
  // *child is the topmost cluster reached and rp is keyed by its slots.
  template <class Visit>
  RepPath climb_rep_path(Vertex from, uint32_t stop, uint32_t* child,
                         Visit&& visit) const;
  // The one LCA climb: out[i] = the lowest common ancestor cluster of
  // q[i]'s leaves, 0 if they lie in different trees; n <= kRootGroup. The
  // pairs' chains climb in lockstep, one parent load per chain per sweep.
  void lca_clusters(const VertexPair* q, size_t n, uint32_t* out) const;
  int boundary_slot(const Cold& c, Vertex bv) const {
    if (c.bv[0] == bv) return 0;
    if (c.bv[1] == bv) return 1;
    return -1;
  }
  // f from a climbed endpoint to the center vertex of the LCA's superunary
  // merge. child = the LCA child on that endpoint's side.
  PathAgg side_to_center(uint32_t lca, uint32_t child,
                         const RepPath& rp) const;

  // Degree at which a cluster grows a hash index over its adjacency slab.
  static constexpr uint32_t kAdjIdxThreshold = 64;

  size_t n_;
  Aggregates agg_;

  std::vector<Hot> hot_;
  std::vector<SizeRec> sizes_;
  std::vector<Cold> cold_;  // empty in kSize
  SlabPool<Adj> adj_pool_;
  SlabPool<uint32_t> child_pool_;
  SlabPool<uint64_t> idx_pool_;  // adjacency hash-index slabs
  ObjectPool<RakeIndex> rake_pool_;  // unused in kSize
  std::vector<uint32_t> free_;
  std::vector<Weight> vweight_;
  std::vector<uint8_t> marked_;
  size_t live_clusters_ = 0;

 private:
  // Aborts with a message naming `query` unless this is a kAll forest.
  void require_all(const char* query) const;
  // The path family's one walk: f over the u--v path, u != v, given
  // their LCA cluster. Aborts naming `query` if it is 0 (different trees).
  PathAgg path_agg(Vertex u, Vertex v, uint32_t lca, const char* query) const;
  int64_t path_query(Vertex u, Vertex v, PathQuery kind) const {
    const VertexPair q{u, v};
    int64_t r = 0;
    path_queries(&q, 1, kind, &r);
    return r;
  }
  // The subtree family's one walk: vertex-weight sum and vertex count of
  // v's side of the forest edge (v, p). Aborts naming `query` otherwise.
  struct SubtreeAgg {
    Weight sum = 0;
    size_t size = 0;
  };
  SubtreeAgg subtree_agg(Vertex v, Vertex p, const char* query) const;
  RakeIndex& rake_of(uint32_t p) { return rake_pool_.at(cold_[p].rake); }
  void rake_ensure(uint32_t p);
  // Incremental rake-index maintenance, O(log distinct keys) each. Only
  // add_child/remove_child, rake_index_refresh and rake_index_build call
  // them, which is what keeps the index rule above.
  void rake_index_add(uint32_t p, uint32_t r);
  void rake_index_remove(uint32_t p, uint32_t r);
  // Rake r's contribution as computed from its current aggregates.
  RakeContrib rake_contrib(uint32_t r) const;
  void children_push(uint32_t p, uint32_t c);
  // Adjacency hash index internals (slot = key << 32 | pos; 0 = empty).
  void adj_index_build(uint32_t c);
  void adj_index_drop(uint32_t c);
  void adj_index_insert(uint32_t c, uint32_t key, uint32_t pos);
  void adj_index_erase(uint32_t c, uint32_t key);
  void adj_index_set_pos(uint32_t c, uint32_t key, uint32_t pos);
  uint32_t adj_index_find(uint32_t c, uint32_t key) const;
  void maybe_drop_index(uint32_t c);
};

}  // namespace ufo::core
