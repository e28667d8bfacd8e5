// par::UfoTree — the parallel batch-dynamic UFO tree (Section 5).
//
// Same cluster hierarchy and query suite as seq::UfoTree (both derive from
// core::UfoCore), but batch_link / batch_cut / batch_update run a
// *path-granular* level-synchronous parallel algorithm on the fork-join
// runtime:
//
//   1. Delete propagation: deleted edges are removed from every level of
//      the (still intact) endpoint ancestor chains — one parallel walk per
//      update emits (cluster, neighbor) removal ops, which are grouped
//      by cluster and applied with one compaction pass per touched cluster
//      (so k deletions against one high-degree cluster cost O(degree + k),
//      not O(degree * k)).
//   2. Teardown: only the union of the endpoints' ancestor paths is torn
//      down (the paper's Algorithm 1 guard, run level-synchronously):
//      walks climb one level per round, converging walks are merged by
//      grouping on the parent, low-degree/low-fanout ancestors are
//      deleted (children re-rooted into a per-level frontier), and
//      surviving high-degree/high-fanout ancestors merely shed their
//      low-degree walk child. A batch of k updates therefore costs
//      O(k * height) teardown work regardless of component size.
//   3. Insert propagation: new edges are added at every level where both
//      endpoints' surviving chains have distinct clusters (all such chain
//      clusters kept degree >= 3 through the teardown guard, so the new
//      projections attach at their single boundary vertex).
//   4. Reclustering: the detached frontier is reclustered level by level
//      with the phase-A superunary + randomized mutual-proposal pair
//      matching rounds. Frontier clusters interact with the *surviving*
//      hierarchy: an active degree-1 cluster next to an attached
//      high-degree neighbor rake-attaches into that neighbor's superunary
//      parent (one task per parent adds the rakes to its rake index);
//      attached degree-1 neighbors of active centers are detached by the
//      same teardown machinery and raked in.
//      Detach requests are emitted as flat lists (par::emit) and
//      deduplicated at the phase boundary, so each target starts one walk
//      however many tasks asked for it.
//      Reclustering reads only structure: every cluster entering a round
//      is queued for step 5, and none is recomputed here.
//   5. A final level-synchronous flush computes the aggregates of every
//      queued cluster and its surviving ancestors bottom-up, once each,
//      and replaces their cached contributions in superunary parents'
//      rake indexes along the way. It is the only aggregate computation
//      in the batch.
//
// Groupings of items by cluster (adjacency edits, converging teardown
// walks, rake-attaches, rake-index refreshes) come from par::group_by, a
// stable counting semisort: groups in ascending cluster order, items in
// index order. Dedupes of cluster ids use one 32-bit epoch tag per cluster
// (state_): an O(n) pass in which the first claim keeps a cluster. Every
// other list the pipeline builds (packs, edge-walk ops, detach requests,
// re-rooted clusters, projections) comes from one par::emit pass, whose
// body runs once per item and may keep its side effects.
//
// Affected granularity is the *ancestor path*: a small batch touching a
// huge component costs O(k * height) instead of the previous
// whole-component O(n) rebuild, so single link()/cut() (batches of one)
// cost O(height) like seq::UfoTree's. Their constant is higher: at one
// worker, linking and then cutting every edge of the fig5 inputs
// (n = 30000) takes 2.6-2.8x seq::UfoTree's time summed over the inputs,
// and 2.2-4.1x per input (BENCH.md). Large batches keep the level-synchronous
// sharing that made the old backend fast on path/pref-attach inputs.
//
// Determinism: query answers depend only on the update sequence. Grouping
// is stable, so its output depends on its input alone; the concrete
// cluster ids and shape may still vary run to run at more than one worker,
// because unique_if keeps whichever duplicate claims its tag first and
// that order feeds the contraction. All structural invariants hold
// regardless (tests run check_valid / check_aggregates at 1, 2, and max
// workers). GraphConnectivity's own update sequence depends on thread
// timing too: its replacement search stops early (see connectivity.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ufo_core.h"
#include "graph/forest.h"

namespace ufo::par {

class UfoTree : public core::UfoCore {
 public:
  // Aggregate tier as in seq::UfoTree; kAll by default.
  explicit UfoTree(size_t n, core::Aggregates a = core::Aggregates::kAll);

  // Single updates are batches of one; with path-granular teardown they
  // cost O(height), same asymptotics as seq::UfoTree.
  void link(Vertex u, Vertex v, Weight w = 1);
  void cut(Vertex u, Vertex v);

  // Batch-dynamic updates, same contract as seq::UfoTree::batch_update:
  // each edge gets at most one update, every deletion names a current
  // edge, and the insertions form a forest together with the current edges
  // minus the batch's deletions (so a batch may cut an edge and link its
  // replacement).
  void batch_update(const std::vector<Update>& batch);
  void batch_link(const std::vector<Edge>& edges);
  void batch_cut(const std::vector<Edge>& edges);

 private:
  friend class UfoTreeTestPeer;

  // Epochs fit in state_ above the three role bits.
  static constexpr uint32_t kMaxEpoch = (uint32_t{1} << 29) - 1;

  // Per-round contraction role of an active cluster. Roles live in state_
  // tagged with the round's epoch, so attached clusters (whose entries are
  // stale from earlier rounds or batches) never alias an active role.
  enum : uint8_t {
    kNone = 0,   // not active this round
    kFree,       // active, unassigned
    kCenter,     // active, high-degree: center of a new superunary parent
    kRaked,      // active, degree-1 next to an active center
    kPaired,     // active, matched in phase B
    kEngaged,    // active, rake-attaching into a surviving superunary
    kFresh,      // a parent allocated this round (level above the actives)
  };
  // flags_ bits.
  enum : uint8_t {
    kDoomed = 1,  // torn down; recycled at the end of the batch
    kQueued = 2,  // in dirty_, waiting for the flush
  };

  // A teardown walk position: the cluster the walk last visited (one level
  // below the cluster about to be examined) and whether it was deleted.
  struct Token {
    uint32_t child = 0;
    bool deleted = false;
  };

  void ensure_scratch();
  void set_role(uint32_t c, uint8_t role);
  uint8_t role_of(uint32_t c) const;
  bool doomed(uint32_t c) const { return flags_[c] & kDoomed; }
  // A fresh tag epoch, above round_ and every tag written so far. When the
  // epochs run out, the live round's roles are renumbered to epoch 1 and
  // every other tag is cleared.
  uint32_t new_epoch();
  // Tags c with epoch; true for the one caller that tagged it first.
  bool claim(uint32_t c, uint32_t epoch);
  // The clusters of v that satisfy keep, each once, in O(|v|) work: a
  // cluster's first tag claim under a fresh epoch keeps it. Order follows v
  // up to which duplicate survives.
  template <class Keep>
  std::vector<uint32_t> unique_if(const std::vector<uint32_t>& v, Keep&& keep);
  // Queue c for the flush (once per batch; doomed clusters are skipped).
  void queue(uint32_t c);

  // Apply the batch's edge updates at every level of the endpoint chains
  // (deletions walk the intact pre-teardown chains; insertions the
  // surviving post-teardown chains).
  void edge_level_ops(const std::vector<Update>& ops, bool insert);
  // The one grouped adjacency edit: groups (cluster, entry) ops by cluster
  // and gives each cluster's group to one task, which appends the entries
  // (insert) or removes the entries' neighbors (erase). The touched
  // clusters are queued for the flush and returned.
  std::vector<uint32_t> apply_adjacency(
      const std::vector<std::pair<uint32_t, Adj>>& ops, bool insert);
  // Level-synchronous concurrent DeleteAncestors from the start clusters:
  // processes walk tokens one level per round, merging converging walks on
  // their shared parent (the walks only ever ascend, so tokens at mixed
  // levels compose). Detached clusters are re-rooted into frontier_ by
  // level; doomed clusters are flagged and recycled at the end of the
  // batch. The starts must be distinct.
  void teardown_pass(const std::vector<uint32_t>& starts);
  void root_into_frontier(uint32_t c);
  // Detach c from its surviving parent (no survival-guard walk: used when
  // c's role under that parent is structurally broken) and re-root it.
  void force_detach(uint32_t c);
  // Revalidation of survivors whose adjacency changed (doomed-neighbor
  // cleanup, reciprocal projections): degree drift can break the
  // high-degree maximality invariant — an attached cluster reaching
  // degree >= 3 next to a degree-1 neighbor parented elsewhere, or
  // dropping to degree 1 next to an attached high-degree neighbor. Broken
  // participants are detached (teardown walklets / force_detach) and
  // re-enter the frontier, which restores maximality when their level
  // re-contracts. The parallel analogue of seq::UfoTree::repair.
  void drain_revalidate();
  // The one detach step of both fixpoints (drain_revalidate and
  // contract_round's Phase 1), which emit flat lists of walk targets and
  // forced clusters: dedupes both lists, force-detaches the forced
  // clusters, and runs one teardown pass from the walk targets that are
  // still attached. Returns false when both lists are empty.
  bool detach(std::vector<uint32_t> walk, const std::vector<uint32_t>& forced);
  // Recluster the per-level frontier bottom-up until empty.
  void contract_frontier();
  void contract_round(int32_t lvl, std::vector<uint32_t> raw);
  // The clusters of raw that may contract at lvl this round: deduped, kept
  // when alive, not doomed, parentless and at lvl, queued for the flush,
  // and dropped when they have no edges (completed tree roots).
  std::vector<uint32_t> admit(int32_t lvl, const std::vector<uint32_t>& raw);
  // The batch's one aggregate pass: drains dirty_ bottom-up, recomputing
  // each queued cluster once, refreshing its cached rake contribution in a
  // superunary parent, and queueing its parent one level up.
  void flush_dirty();

  // (epoch << 3) | role: a role in the round whose epoch is round_, or a
  // unique_if claim. A claim overwrites a role, so no cluster holding a role
  // is claimed between Phase 2 and Phase 4 of a round.
  std::vector<uint32_t> state_;
  uint32_t epoch_ = 0;  // the last epoch handed out
  uint32_t round_ = 0;  // the current contraction round's epoch
  std::vector<uint32_t> proposal_;  // Phase-B proposed partner
  std::vector<uint8_t> flags_;  // kDoomed | kQueued
  std::vector<uint32_t> doomed_list_;
  std::vector<std::vector<uint32_t>> frontier_;  // parentless, per level
  std::vector<std::vector<uint32_t>> dirty_;  // queued for the flush, per level
  std::vector<uint32_t> revalidate_;  // survivors whose adjacency changed
  uint64_t round_salt_ = 0x243f6a8885a308d3ULL;  // pairing round seed
};

}  // namespace ufo::par
