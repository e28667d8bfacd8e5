// Batch-dynamic connectivity for *general graphs*.
//
// The paper's structures maintain forests: link() requires its endpoints to
// be disconnected and cut() removes a tree edge. Every motivating workload
// (RIS edge streams, road closures, fleet tracking) is a general-graph
// problem, so this subsystem layers the textbook spanning-forest scheme on
// top of a UFO-tree backend (par::UfoTree by default, or seq::UfoTree):
//
//   * a spanning forest of the current graph, held in the Backend; its leaf
//     adjacency is the only copy of the tree edges, and by default it
//     maintains component sizes only (core::Aggregates::kSize);
//   * every remaining edge in a non-tree EdgeStore (per-vertex adjacency on
//     the phase-concurrent hash table);
//   * one weight map keyed by edge, holding exactly the graph's edges, which
//     doubles as the membership index;
//   * on insertion, an edge joining two components becomes a tree edge,
//     otherwise a non-tree edge;
//   * on deletion of tree edges, one replacement search promotes non-tree
//     edges until forest components equal graph components again.
//
// Batch operations preserve the Section 5 batch contract for the backend: a
// batch_insert stages candidates through a union-find over the batch
// endpoints (seeded with forest component ids), so the edges handed to
// Backend::batch_link are mutually independent — any ordering is a valid
// link sequence. batch_erase cuts all tree edges in one backend batch and
// then runs the replacement search once for all of them; erase() is a batch
// of one.
//
// Replacement search (largest-piece exemption, see DESIGN.md). Cutting k
// tree edges splits each affected component into pieces; every piece holds
// a cut endpoint. A crossing non-tree edge joins two pieces of the same
// original component, so at least one of its endpoints lies outside that
// component's largest piece. The search therefore labels and scans only the
// non-largest pieces (piece sizes come from the backend in O(height)), and a
// piece stops scanning once it has emitted an edge into its component's
// largest piece: it is joined to that piece already. The emitted edges
// connect exactly the pieces that all crossing edges connect; a union-find
// over pieces keeps a spanning forest of them, promoted with one
// Backend::batch_link. With one cut this is HDT's rule: scan the smaller
// side, stop at the first replacement.
//
// Determinism: connectivity answers (connected, num_components) do not
// depend on thread timing. The spanning forest does at more than one
// worker: which of a piece's vertices get scanned before its early-stop
// flag is set depends on timing, so the promoted replacement edges, and
// with them forest() path queries and anything computed from the forest,
// can differ run to run. At one worker every run agrees.
//
// Costs: insert/erase of a non-tree edge O(1) expected beyond the
// connectivity query; a cut batch costs the backend cut plus O(sum of the
// non-largest piece sizes and their non-tree degrees + k * height) for the
// search, and one backend batch_link — the pragmatic bound (no HDT-style
// amortization), which the bench_connectivity sweep measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "connectivity/edge_store.h"
#include "core/batch_queries.h"
#include "core/capabilities.h"
#include "core/invariants.h"
#include "core/ufo_core.h"
#include "graph/forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/hash_table.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "recovery/snapshot.h"
#include "util/union_find.h"

namespace ufo::conn {

// Outcome of a batch mutation. kDegradedAlloc (batch_insert only; the
// erase path reserves nothing): a bulk hash-table reservation failed (real
// or injected bad_alloc), so the batch completed through the sequential
// fallback — the structure is fully consistent and every edge was applied,
// only the parallel fast path was lost.
enum class BatchStatus { kOk, kDegradedAlloc };

// BFS component labeling over any adjacency with size() (vertex count) and
// for_each_neighbor (an EdgeStore, a forest backend); label = smallest
// vertex id in the component. Shared by check_valid() and the test oracles.
template <class Graph>
std::vector<Vertex> component_labels(const Graph& g) {
  size_t n = g.size();
  std::vector<Vertex> label(n, kNoVertex);
  std::vector<Vertex> queue;
  for (Vertex root = 0; root < n; ++root) {
    if (label[root] != kNoVertex) continue;
    // Scanning roots in increasing order makes each component's label its
    // smallest vertex id — a canonical form the tests can compare against.
    label[root] = root;
    queue.assign(1, root);
    for (size_t head = 0; head < queue.size(); ++head) {
      g.for_each_neighbor(queue[head], [&](Vertex y) {
        if (label[y] == kNoVertex) {
          label[y] = root;
          queue.push_back(y);
        }
      });
    }
  }
  return label;
}

template <core::BatchDynamic Backend = par::UfoTree>
  requires std::derived_from<Backend, core::UfoCore>
class GraphConnectivity {
 public:
  using backend_type = Backend;

  // The spanning forest keeps component sizes only by default, which is all
  // the connectivity operations read. Pass core::Aggregates::kAll to run
  // path, subtree and non-local queries on forest().
  explicit GraphConnectivity(size_t n,
                             core::Aggregates a = core::Aggregates::kSize)
      : n_(n), forest_(n, a), nontree_(n), components_(n) {}

  size_t size() const { return n_; }
  size_t num_edges() const { return num_tree_edges() + nontree_.edges(); }
  size_t num_tree_edges() const { return n_ - components_; }
  size_t num_components() const { return components_; }
  bool has_edge(Vertex u, Vertex v) const {
    return u != v && weight_.contains(edge_key(u, v));
  }
  // False when either endpoint is out of range.
  bool connected(Vertex u, Vertex v) const {
    return u < n_ && v < n_ && (u == v || forest_.connected(u, v));
  }

  // The spanning forest itself: path/subtree/non-local queries on it are
  // meaningful for any workload that treats promoted edges as routes. They
  // need a layer constructed with core::Aggregates::kAll.
  const Backend& forest() const { return forest_; }

  // Vertex annotations pass through to the backend when it supports them
  // (weights feed subtree aggregates, marks feed nearest-marked queries);
  // they never affect connectivity, so exposing them cannot desync the
  // spanning forest. On a size-only forest they are stored but unused.
  void set_vertex_weight(Vertex v, Weight w)
    requires core::SubtreeQueryable<Backend>
  {
    forest_.set_vertex_weight(v, w);
  }
  void set_mark(Vertex v, bool m)
    requires core::NonLocalQueryable<Backend>
  {
    forest_.set_mark(v, m);
  }

  // Number of vertices in v's component, O(height); 0 when v is out of
  // range.
  size_t component_size(Vertex v) const {
    return v < n_ ? forest_.component_size(v) : 0;
  }

  // --- Single-edge updates --------------------------------------------------
  // Insert {u, v}. Returns false (no-op) on self-loops and duplicates.
  bool insert(Vertex u, Vertex v, Weight w = 1) {
    if (u == v || u >= n_ || v >= n_ || has_edge(u, v)) return false;
    weight_.insert_or_assign(edge_key(u, v), w);
    if (forest_.connected(u, v)) {
      nontree_.insert(u, v);
    } else {
      forest_.link(u, v, w);
      --components_;
    }
    return true;
  }

  // Erase {u, v}. Returns false if the edge is absent. Deleting a tree edge
  // runs the replacement search on a cut batch of one.
  bool erase(Vertex u, Vertex v) {
    if (u == v || u >= n_ || v >= n_) return false;
    if (nontree_.erase(u, v)) {
      weight_.erase(edge_key(u, v));
      return true;
    }
    if (!weight_.erase(edge_key(u, v))) return false;  // else a tree edge
    forest_.cut(u, v);
    ++components_;
    replace({Edge{u, v, Weight{1}}});
    return true;
  }

  // --- Batch updates --------------------------------------------------------
  // Insert a batch of edges. Unlike Backend::batch_link there is no
  // precondition: self-loops, duplicates within the batch, and edges already
  // present are filtered, and cycle-closing edges become non-tree edges. The
  // spanning candidates are staged through a union-find so the backend batch
  // is mutually independent (Section 5 contract). Returns kDegradedAlloc if
  // a bulk reservation failed and the sequential fallback was used (the
  // batch is still fully applied).
  BatchStatus batch_insert(const EdgeList& edges) {
    if (edges.empty()) return BatchStatus::kOk;
    // Phase 1 (parallel): the first occurrence of each new edge, in key
    // order (DESIGN.md, "Determinism"); self-loops, out-of-range and
    // present edges drop out.
    EdgeList cand = first_occurrences(
        edges, [&](const Edge& e) { return !has_edge(e.u, e.v); });
    if (cand.empty()) return BatchStatus::kOk;

    // Phase 2: stage through a union-find over the forest components of the
    // endpoints, so an edge joins the tree batch only when it joins two
    // components that the batch's earlier tree edges have not joined. The
    // pieces are freed before the forest grows.
    EdgeList tree_batch, nontree_batch;
    {
      Pieces pc = endpoint_pieces(cand);
      util::UnionFind stage(pc.groups.keys.size());
      for (size_t i = 0; i < cand.size(); ++i) {
        if (stage.unite(pc.of[2 * i], pc.of[2 * i + 1]))
          tree_batch.push_back(cand[i]);
        else
          nontree_batch.push_back(cand[i]);
      }
    }

    // Phase 3: apply. The tree batch is mutually independent by staging.
    // Weights: one bulk reservation, then phase-concurrent inserts (cand is
    // deduped, so keys are distinct); on reservation failure degrade to
    // sequential growth like the non-tree store below.
    BatchStatus status = BatchStatus::kOk;
    if (weight_.try_reserve(cand.size())) {
      par::parallel_for(0, cand.size(), [&](size_t i) {
        weight_.insert(edge_key(cand[i].u, cand[i].v), cand[i].w);
      });
    } else {
      UFO_STAT("conn.degraded_batches", 1);
      for (const Edge& e : cand)
        weight_.insert_or_assign(edge_key(e.u, e.v), e.w);
      status = BatchStatus::kDegradedAlloc;
    }
    if (!tree_batch.empty()) {
      forest_.batch_link(tree_batch);
      components_ -= tree_batch.size();
    }
    if (!nontree_batch.empty() &&
        store_batch(nontree_batch) == BatchStatus::kDegradedAlloc)
      status = BatchStatus::kDegradedAlloc;
    return status;
  }

  // Erase a batch of edges. Absent edges and duplicates are filtered.
  // Non-tree removals are trivial; tree removals go through one backend
  // batch_cut, then one replacement search for all cut edges (see the
  // header comment). Makes no hash-table reservation, so it always returns
  // kOk.
  BatchStatus batch_erase(const EdgeList& edges) {
    if (edges.empty()) return BatchStatus::kOk;
    EdgeList cand = first_occurrences(edges, [](const Edge&) { return true; });
    // Classify in parallel: 1 = non-tree, 2 = tree (in the weight map but
    // not the non-tree store), 0 = absent.
    std::vector<uint8_t> kind(cand.size());
    par::parallel_for(0, cand.size(), [&](size_t i) {
      const Edge& e = cand[i];
      if (nontree_.contains(e.u, e.v))
        kind[i] = 1;
      else if (weight_.contains(edge_key(e.u, e.v)))
        kind[i] = 2;
      else
        kind[i] = 0;
    });
    // Non-tree removals and weight drops: phase-concurrent tombstone erases
    // (distinct keys by dedupe above); the cut batch is emitted from the
    // classification.
    par::parallel_for(0, cand.size(), [&](size_t i) {
      if (kind[i] == 1) nontree_.erase(cand[i].u, cand[i].v);
      if (kind[i] != 0) weight_.erase(edge_key(cand[i].u, cand[i].v));
    });
    EdgeList cut_batch = par::emit<Edge>(cand.size(), [&](size_t i, auto& out) {
      if (kind[i] == 2) out(cand[i]);
    });
    if (cut_batch.empty()) return BatchStatus::kOk;
    forest_.batch_cut(cut_batch);
    components_ += cut_batch.size();
    replace(cut_batch);
    return BatchStatus::kOk;
  }

  // --- Introspection --------------------------------------------------------
  size_t memory_bytes() const {
    auto vec = [](const auto& v) {
      return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    return sizeof(*this) + forest_.memory_bytes() + nontree_.memory_bytes() +
           weight_.memory_bytes() + vec(labels_) + vec(members_) +
           vec(emit_off_) + vec(emitted_);
  }

  // Invariant audit: the forest spans exactly the graph's components, every
  // non-tree edge is intra-component, the weight map holds exactly the
  // graph's edges, and the counters agree with a from-scratch labeling of
  // the forest's leaf adjacency. Failure codes (entity = a vertex of the
  // edge, or 0 for counter drift):
  //   #101 component count drift     #104 edge missing its weight entry
  //   #102 tree edge count drift     #105 spanning forest out of sync
  //   #103 crossing non-tree edge    #106 stale weight entry
  core::InvariantReport validate() const {
    core::InvariantReport rep;
    std::vector<Vertex> label = component_labels(forest_);
    size_t comps = 0;
    for (Vertex v = 0; v < n_; ++v)
      if (label[v] == v) ++comps;
    if (comps != components_) rep.add(101, 0, "component count drift");
    if (forest_edges() + components_ != n_)
      rep.add(102, 0, "tree edge count drift");
    if (weight_.size() != num_edges()) rep.add(106, 0, "stale weight entry");
    for (Vertex v = 0; v < n_ && !rep.truncated; ++v) {
      nontree_.for_each_neighbor(v, [&](Vertex y) {
        if (label[v] != label[y]) rep.add(103, v, "crossing non-tree edge");
        if (!weight_.contains(edge_key(v, y))) rep.add(104, v, "missing weight");
      });
      forest_.for_each_neighbor(v, [&](Vertex y) {
        if (!weight_.contains(edge_key(v, y))) rep.add(104, v, "missing weight");
        if (!forest_.connected(v, y)) rep.add(105, v, "forest out of sync");
      });
    }
    return rep;
  }

  bool check_valid() const {
    core::InvariantReport rep = validate();
    if (!rep.ok()) rep.print(stderr);
    return rep.ok();
  }

  // --- Checkpointing --------------------------------------------------------
  // Durable snapshot of the whole layer: the spanning forest's cluster
  // hierarchy (via ForestSerializer) plus tree/non-tree edge sets (the tree
  // edges read off the forest), edge weights, and the component counter,
  // all in one checksummed file written with the temp + fsync + rename
  // protocol.
  recovery::RecoveryError save_checkpoint(const std::string& path) const {
    UFO_SPAN("recovery.conn_save");
    recovery::SnapshotWriter w;
    recovery::ForestSerializer::append(w, forest_);
    recovery::ByteBuf meta;
    meta.put_u64(n_);
    meta.put_u64(components_);
    w.add_section(recovery::kSecConnMeta, std::move(meta));
    w.add_section(recovery::kSecTreeEdges,
                  dump_edges(forest_, num_tree_edges()));
    w.add_section(recovery::kSecNontreeEdges,
                  dump_edges(nontree_, nontree_.edges()));
    recovery::ByteBuf ws;
    ws.put_u64(weight_.size());
    weight_.for_each([&](uint64_t k, int64_t wt) {
      ws.put_u64(k);
      ws.put_i64(wt);
    });
    w.add_section(recovery::kSecWeights, std::move(ws));
    return w.commit(path);
  }

  // Restore into a freshly constructed GraphConnectivity of the snapshot's
  // n. Edge sets are cross-checked against the restored forest: the tree
  // section must list exactly its n - comps edges, and every non-tree edge
  // must be new and join two vertices of one forest component (anything
  // else -> kInconsistent); a damaged kWeights section degrades to default
  // weights when allowed.
  recovery::RecoveryError load_checkpoint(
      const std::string& path, const recovery::LoadOptions& opts = {},
      recovery::LoadStats* stats = nullptr) {
    using recovery::RecoveryError;
    UFO_SPAN("recovery.conn_load");
    recovery::LoadStats local;
    recovery::LoadStats& st = stats ? *stats : local;
    if (nontree_.edges() != 0 || components_ != n_ || weight_.size() != 0)
      return RecoveryError::kBadTarget;
    recovery::SnapshotReader r;
    RecoveryError e = r.open(path);
    if (e != RecoveryError::kNone) return e;
    e = recovery::ForestSerializer::restore(r, forest_, opts, &st);
    if (e != RecoveryError::kNone) return e;

    const auto* cm = r.find(recovery::kSecConnMeta);
    const auto* te = r.find(recovery::kSecTreeEdges);
    const auto* ne = r.find(recovery::kSecNontreeEdges);
    const auto* wsec = r.find(recovery::kSecWeights);
    if (!cm || !te || !ne) return RecoveryError::kMissingSection;
    if (cm->corrupt || te->corrupt || ne->corrupt)
      return RecoveryError::kCorruptSection;
    recovery::Cursor mc(cm->data, cm->len);
    uint64_t n = mc.get_u64();
    uint64_t comps = mc.get_u64();
    if (!mc.ok()) return RecoveryError::kTruncated;
    if (n != n_) return RecoveryError::kBadTarget;
    if (comps > n_) return RecoveryError::kInconsistent;

    try {
      EdgeList tree_edges, nontree_edges;
      e = parse_edges(*te, &tree_edges);
      if (e != RecoveryError::kNone) return e;
      e = parse_edges(*ne, &nontree_edges);
      if (e != RecoveryError::kNone) return e;
      // Distinct forest edges, as many as the forest holds and the counter
      // implies: the list is exactly the forest's edge set.
      if (tree_edges.size() != n_ - comps || forest_edges() != n_ - comps)
        return RecoveryError::kInconsistent;
      for (const Edge& ed : tree_edges)
        if (!forest_.has_edge(ed.u, ed.v) ||
            !weight_.insert_or_assign(edge_key(ed.u, ed.v), 1))
          return RecoveryError::kInconsistent;
      for (const Edge& ed : nontree_edges) {
        if (!forest_.connected(ed.u, ed.v) ||
            !weight_.insert_or_assign(edge_key(ed.u, ed.v), 1))
          return RecoveryError::kInconsistent;
        nontree_.insert(ed.u, ed.v);
      }
      if (wsec && !wsec->corrupt) {
        recovery::Cursor wc(wsec->data, wsec->len);
        uint64_t count = wc.get_u64();
        if (count > wsec->len / 16 || !wc.can_read(count * 16))
          return RecoveryError::kTruncated;
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t key = wc.get_u64();
          Weight wt = wc.get_i64();
          if (!weight_.contains(key)) return RecoveryError::kInconsistent;
          weight_.insert_or_assign(key, wt);
        }
      } else if (opts.allow_degraded) {
        st.degraded = true;
        st.notes.emplace_back("edge weights defaulted to 1");
        UFO_STAT("recovery.load.degraded", 1);
      } else {
        return RecoveryError::kCorruptSection;
      }
      components_ = comps;
    } catch (const std::bad_alloc&) {
      return RecoveryError::kAllocFailed;
    }
    if (opts.verify && !validate().ok()) return RecoveryError::kInconsistent;
    return RecoveryError::kNone;
  }

 private:
  // Edges in the forest's leaf adjacency, counted from scratch (O(n)).
  size_t forest_edges() const {
    size_t ends = 0;
    for (Vertex v = 0; v < n_; ++v) ends += forest_.degree(v);
    return ends / 2;
  }

  // Bulk-insert `edges` into the non-tree store: reserve once + parallel
  // inserts, or, when the reservation's allocation fails, degrade to
  // sequential per-edge inserts (each grows incrementally, so a failed bulk
  // reservation does not imply the small ones fail too).
  BatchStatus store_batch(const EdgeList& edges) {
    if (nontree_.try_reserve_batch(edges)) {
      par::parallel_for(0, edges.size(), [&](size_t i) {
        nontree_.insert_concurrent(edges[i].u, edges[i].v);
      });
      return BatchStatus::kOk;
    }
    UFO_STAT("conn.degraded_batches", 1);
    for (const Edge& e : edges) nontree_.insert(e.u, e.v);
    return BatchStatus::kDegradedAlloc;
  }

  // `count` edges, each listed once from its smaller endpoint's adjacency.
  template <class Graph>
  static recovery::ByteBuf dump_edges(const Graph& g, size_t count) {
    recovery::ByteBuf b;
    b.put_u64(count);
    for (Vertex v = 0; v < g.size(); ++v)
      g.for_each_neighbor(v, [&](Vertex y) {
        if (v < y) {
          b.put_u32(v);
          b.put_u32(y);
        }
      });
    return b;
  }

  recovery::RecoveryError parse_edges(const recovery::SnapshotReader::Section& sec,
                                      EdgeList* out) const {
    recovery::Cursor c(sec.data, sec.len);
    uint64_t count = c.get_u64();
    // Divide, don't multiply: a corrupt count must not overflow the guard.
    if (count > sec.len / 8 || !c.can_read(count * 8))
      return recovery::RecoveryError::kTruncated;
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Edge e;
      e.u = c.get_u32();
      e.v = c.get_u32();
      if (e.u >= n_ || e.v >= n_ || e.u == e.v)
        return recovery::RecoveryError::kInconsistent;
      out->push_back(e);
    }
    return recovery::RecoveryError::kNone;
  }

  Weight weight_of(Vertex u, Vertex v) const {
    return weight_.get(edge_key(u, v), Weight{1});
  }

  // The first occurrence of each distinct edge of `edges` that is no
  // self-loop, has both endpoints below n and passes keep, with u <= v, in
  // ascending edge-key order. The grouping key min * n + max sorts like
  // edge_key in 2 x bit_width(n) bits rather than 32 + bit_width(n), so
  // group_by makes fewer radix passes. Every other edge takes key n * n,
  // past every valid key, and its group is dropped.
  template <class Keep>
  EdgeList first_occurrences(const EdgeList& edges, Keep&& keep) const {
    const uint64_t invalid = uint64_t{n_} * n_;
    par::Groups<uint64_t> g = par::group_by(edges.size(), [&](size_t i) {
      const auto [lo, hi] = std::minmax(edges[i].u, edges[i].v);
      return lo == hi || hi >= n_ ? invalid : uint64_t{lo} * n_ + hi;
    });
    return par::emit<Edge>(g.keys.size(), [&](size_t j, auto& out) {
      if (g.keys[j] == invalid) return;
      Edge e = edges[g.at[g.start[j]]];
      if (e.u > e.v) std::swap(e.u, e.v);
      if (keep(e)) out(e);
    });
  }

  // The endpoints of `edges` grouped by forest component: group p of
  // `groups` is one component (a piece), keyed by its root cluster, and
  // of[j] is endpoint j's piece.
  struct Pieces {
    par::Groups<uint32_t> groups;
    std::vector<uint32_t> of;
  };
  Pieces endpoint_pieces(const EdgeList& edges) const {
    // The batched root climb, one block of endpoints per task.
    constexpr size_t kBlock = 2 * core::kClimbBlock;
    const size_t n = 2 * edges.size();
    std::vector<uint32_t> root(n);
    par::parallel_for(0, (n + kBlock - 1) / kBlock, [&](size_t b) {
      const size_t lo = b * kBlock;
      const size_t len = std::min(kBlock, n - lo);
      Vertex vs[kBlock] = {};  // zeroed to quiet -Wmaybe-uninitialized
      for (size_t j = 0; j < len; ++j) vs[j] = endpoint(edges, lo + j);
      forest_.tree_roots(vs, len, &root[lo]);
    }, 1);
    Pieces pc{par::group_by(n, [&](size_t j) { return root[j]; }),
              std::vector<uint32_t>(n)};
    const par::Groups<uint32_t>& g = pc.groups;
    par::parallel_for(0, g.keys.size(), [&](size_t p) {
      for (uint32_t j = g.start[p]; j < g.start[p + 1]; ++j)
        pc.of[g.at[j]] = static_cast<uint32_t>(p);
    });
    return pc;
  }

  // The replacement search for the tree edges in `cuts`, which have just
  // been cut from forest_. One round: label the non-largest pieces, scan
  // their non-tree edges, promote a spanning forest of the emitted edges
  // with one batch_link (soundness and cost in the header comment and
  // DESIGN.md).
  void replace(const EdgeList& cuts) {
    UFO_SPAN("conn.search");
    UFO_STAT("conn.search.rounds", 1);
    constexpr uint32_t kUnlabelled = 0xffffffffu;

    // 1. Pieces: the distinct components of the 2k cut endpoints. A
    // union-find along the cut pairs groups them into the original
    // components, each of which exempts its largest piece (ties go to the
    // smaller piece index).
    Pieces pc = endpoint_pieces(cuts);
    const size_t np = pc.groups.keys.size();
    std::vector<Vertex> rep(np);
    std::vector<size_t> piece_size(np);
    par::parallel_for(0, np, [&](size_t p) {
      rep[p] = endpoint(cuts, pc.groups.at[pc.groups.start[p]]);
      piece_size[p] = forest_.component_size(rep[p]);
    });
    util::UnionFind original(np);
    for (size_t i = 0; i < cuts.size(); ++i)
      original.unite(pc.of[2 * i], pc.of[2 * i + 1]);
    // largest[r]: the exempt piece of the original component rooted at r.
    std::vector<uint32_t> largest(np, kUnlabelled), exempt(np);
    for (uint32_t p = 0; p < np; ++p) {
      uint32_t& best = largest[original.find(p)];
      if (best == kUnlabelled || piece_size[p] > piece_size[best]) best = p;
    }
    std::vector<uint32_t> scanned;  // the non-largest pieces
    for (uint32_t p = 0; p < np; ++p) {
      exempt[p] = largest[original.find(p)];
      if (exempt[p] != p) scanned.push_back(p);
    }

    // 2. Label: BFS over the forest's adjacency from each non-largest
    // piece's representative, pieces in parallel. Each piece's vertices
    // land in its own slice of members_ (sized by the piece sizes), which
    // doubles as its BFS queue. Pieces are disjoint components of the cut
    // forest, so no two pieces write the same label.
    std::vector<size_t> slice(scanned.size() + 1, 0);
    for (size_t j = 0; j < scanned.size(); ++j)
      slice[j] = piece_size[scanned[j]];
    members_.resize(par::scan_exclusive(slice));
    if (labels_.empty()) labels_.assign(n_, kUnlabelled);
    par::parallel_for(0, scanned.size(), [&](size_t j) {
      const uint32_t p = scanned[j];
      size_t head = slice[j], tail = slice[j];
      labels_[rep[p]] = p;
      members_[tail++] = rep[p];
      while (head < tail) {
        forest_.for_each_neighbor(members_[head++], [&](Vertex y) {
          if (labels_[y] == kUnlabelled) {
            labels_[y] = p;
            members_[tail++] = y;
          }
        });
      }
      assert(tail == slice[j + 1] && "component_size disagrees with forest");
    });

    // 3. Scan, vertex by vertex: a non-tree neighbour y of x (piece p) lies
    // in the piece labels_[y], or, if unlabelled, in p's exempt piece (a
    // non-tree edge never leaves its original component). Every edge out of
    // p is emitted into x's slots until p emits one into its exempt piece;
    // then p is joined to it, and the rest of p's vertices skip the scan.
    const size_t m = members_.size();
    emit_off_.resize(m + 1);
    par::parallel_for(0, m, [&](size_t i) {
      emit_off_[i] = nontree_.degree(members_[i]);
    });
    emit_off_[m] = 0;
    emitted_.assign(par::scan_exclusive(emit_off_), kNoVertex);
    std::vector<std::atomic<uint8_t>> joined(np);
    par::parallel_for(0, m, [&](size_t i) {
      const Vertex x = members_[i];
      const uint32_t p = labels_[x];
      if (joined[p]) return;
      UFO_STAT("conn.replacement_scanned", 1);
      size_t out = emit_off_[i];
      bool stop = false;
      nontree_.for_each_neighbor(x, [&](Vertex y) {
        if (stop) return;
        const uint32_t q = labels_[y];
        if (q == p) return;
        emitted_[out++] = y;
        if (q == kUnlabelled) {
          stop = true;
          joined[p] = 1;
        }
      });
    });

    // 4. Promote: stage the emitted edges through a union-find over pieces;
    // the accepted ones form a spanning forest of the piece graph, hence
    // are mutually independent for one batch_link. The labelled vertices
    // are exactly members_, so resetting them readies labels_ for the next
    // search.
    util::UnionFind stage(np);
    EdgeList winners;
    for (size_t i = 0; i < m; ++i) {
      const Vertex x = members_[i];
      const uint32_t p = labels_[x];
      for (size_t s = emit_off_[i];
           s < emit_off_[i + 1] && emitted_[s] != kNoVertex; ++s) {
        const Vertex y = emitted_[s];
        uint32_t q = labels_[y];
        if (q == kUnlabelled) q = exempt[p];
        if (stage.unite(p, q)) winners.push_back({x, y, weight_of(x, y)});
      }
    }
    par::parallel_for(0, m, [&](size_t i) {
      labels_[members_[i]] = kUnlabelled;
    });
    if (winners.empty()) return;
    UFO_SPAN("conn.promote");
    UFO_STAT("conn.promotions", static_cast<int64_t>(winners.size()));
    forest_.batch_link(winners);
    components_ -= winners.size();
    par::parallel_for(0, winners.size(), [&](size_t j) {
      nontree_.erase(winners[j].u, winners[j].v);
    });
  }

  size_t n_;
  Backend forest_;             // spanning forest; its leaf adjacency is
                               // the tree-edge set
  EdgeStore nontree_;          // replacement-edge candidates
  par::ConcurrentMap weight_;  // edge key -> weight, all edges (membership)
  size_t components_;
  // Replacement-search scratch, pooled across batches: vertex -> piece
  // labels (allocated by the first search; every entry is unlabelled
  // between searches), the non-largest pieces' vertices (piece by piece),
  // and each vertex's slots for emitted replacement candidates.
  std::vector<uint32_t> labels_;
  std::vector<Vertex> members_;
  std::vector<size_t> emit_off_;
  std::vector<Vertex> emitted_;
};

static_assert(core::GraphConnectivity<GraphConnectivity<>>);

}  // namespace ufo::conn
