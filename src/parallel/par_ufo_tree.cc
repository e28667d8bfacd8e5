// Parallel batch-dynamic UFO tree updates: path-granular level-synchronous
// teardown (concurrent DeleteAncestors), multi-level edge propagation, and
// reclustering of the detached frontier against the surviving hierarchy
// (Section 5). Queries and aggregate maintenance are inherited from
// core::UfoCore.
#include "parallel/par_ufo_tree.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {

UfoTree::UfoTree(size_t n, core::Aggregates a) : core::UfoCore(n, a) {
  ensure_scratch();
}

void UfoTree::link(Vertex u, Vertex v, Weight w) {
  assert(u != v && !connected(u, v));
  batch_update({{u, v, w, false}});
}

void UfoTree::cut(Vertex u, Vertex v) {
  assert(has_edge(u, v));
  batch_update({{u, v, 0, true}});
}

void UfoTree::batch_link(const std::vector<Edge>& edges) {
  std::vector<Update> batch(edges.size());
  parallel_for(0, edges.size(), [&](size_t i) {
    batch[i] = {edges[i].u, edges[i].v, edges[i].w, false};
  });
  batch_update(batch);
}

void UfoTree::batch_cut(const std::vector<Edge>& edges) {
  std::vector<Update> batch(edges.size());
  parallel_for(0, edges.size(), [&](size_t i) {
    batch[i] = {edges[i].u, edges[i].v, edges[i].w, true};
  });
  batch_update(batch);
}

void UfoTree::ensure_scratch() {
  size_t n = pool_size();
  if (state_.size() < n) state_.resize(n, 0);
  if (proposal_.size() < n) proposal_.resize(n, 0);
  if (flags_.size() < n) flags_.resize(n, 0);
}

void UfoTree::set_role(uint32_t c, uint8_t role) {
  state_[c] = (round_ << 3) | role;
}

uint8_t UfoTree::role_of(uint32_t c) const {
  uint32_t s = state_[c];
  return (s >> 3) == round_ ? static_cast<uint8_t>(s & 7)
                            : static_cast<uint8_t>(kNone);
}

uint32_t UfoTree::new_epoch() {
  if (epoch_ == kMaxEpoch) {
    // Wrap: renumber the current round's roles to epoch 1, drop every
    // other tag.
    parallel_for(0, state_.size(), [&](size_t c) {
      uint32_t s = state_[c];
      state_[c] = (s >> 3) == round_ ? (uint32_t{1} << 3) | (s & 7) : 0;
    });
    round_ = epoch_ = 1;
  }
  return ++epoch_;
}

bool UfoTree::claim(uint32_t c, uint32_t epoch) {
  uint32_t tag = epoch << 3;
  std::atomic_ref<uint32_t> s(state_[c]);
  return s.load(std::memory_order_relaxed) != tag &&
         s.exchange(tag, std::memory_order_relaxed) != tag;
}

template <class Keep>
std::vector<uint32_t> UfoTree::unique_if(const std::vector<uint32_t>& v,
                                         Keep&& keep) {
  uint32_t epoch = new_epoch();
  return filter(v, [&](uint32_t c) { return keep(c) && claim(c, epoch); });
}

void UfoTree::queue(uint32_t c) {
  if (flags_[c] != 0) return;  // already queued, or doomed
  flags_[c] = kQueued;
  size_t lvl = static_cast<size_t>(hot_[c].level);
  if (dirty_.size() <= lvl) dirty_.resize(lvl + 1);
  dirty_[lvl].push_back(c);
}

void UfoTree::root_into_frontier(uint32_t c) {
  size_t lvl = static_cast<size_t>(hot_[c].level);
  if (frontier_.size() <= lvl) frontier_.resize(lvl + 1);
  frontier_[lvl].push_back(c);
}

// Apply the batch's edge updates at every level where both endpoints'
// ancestor chains have distinct clusters (the parallel analogue of seq's
// edge_walk). Deletions run on the intact pre-teardown chains, so the
// teardown's survival guards see post-delete degrees; insertions run on the
// surviving post-teardown chains, whose clusters all kept degree >= 3
// through the guard and therefore attach the new projections at their
// single boundary vertex. Each update's chain pair is walked once, read-only
// and in parallel with the others; the emitted (cluster, op) list is grouped
// so one task owns each touched cluster.
void UfoTree::edge_level_ops(const std::vector<Update>& ops, bool insert) {
  using Op = std::pair<uint32_t, Adj>;
  apply_adjacency(emit<Op>(ops.size(), [&](size_t i, auto& out) {
    const Update& e = ops[i];
    uint32_t a = leaf_id(e.u), b = leaf_id(e.v);
    while (a != 0 && b != 0 && a != b) {
      out({a, {b, e.u, e.v, e.w}});
      out({b, {a, e.v, e.u, e.w}});
      a = hot_[a].parent;
      b = hot_[b].parent;
    }
  }), insert);
}

// One task per touched cluster owns all of its adjacency writes: inserts
// append, erases compact the list once against the sorted targets (so k
// erasures against one high-degree cluster cost O(degree + k)). The erase
// groups sort their targets in slices of one shared buffer, in group order.
std::vector<uint32_t> UfoTree::apply_adjacency(
    const std::vector<std::pair<uint32_t, Adj>>& ops, bool insert) {
  Groups<uint32_t> g =
      group_by(ops.size(), [&](size_t i) { return ops[i].first; });
  std::vector<uint32_t> tgt(insert ? 0 : ops.size());
  parallel_for(0, g.keys.size(), [&](size_t j) {
    uint32_t c = g.keys[j];
    uint32_t begin = g.start[j], end = g.start[j + 1];
    if (insert) {
      nbrs_reserve(c, hot_[c].nbrs.size + (end - begin));
      for (uint32_t i = begin; i < end; ++i) {
        const Adj& a = ops[g.at[i]].second;
        assert(!adj_contains(c, a.nbr) && "adjacency entry already present");
        nbrs_push(c, a);
      }
    } else {
      for (uint32_t i = begin; i < end; ++i) tgt[i] = ops[g.at[i]].second.nbr;
      std::sort(tgt.begin() + begin, tgt.begin() + end);
      adj_remove_batch(c, {tgt.data() + begin, end - begin});
    }
  });
  for (uint32_t c : g.keys) queue(c);
  return std::move(g.keys);
}

// Level-synchronous concurrent DeleteAncestors (Algorithm 1 run one level
// per round across every walk at once). Tokens carry the cluster the walk
// just left; converging walks are merged by grouping on the shared
// parent, so each parent is decided by exactly one task with the full set
// of its walk children in view. Low-degree/low-fanout parents are deleted
// (children re-rooted into the frontier); surviving high-degree/high-fanout
// parents shed their low-degree walk children and stay. The walk child of a
// survivor stays attached only when its degree is >= 3 — which is also what
// keeps the surviving chains usable for insert propagation.
void UfoTree::teardown_pass(const std::vector<uint32_t>& starts) {
  UFO_SPAN("par.teardown");
  UFO_STAT("par.teardown.walks", starts.size());
  std::vector<Token> toks(starts.size());
  parallel_for(0, starts.size(),
               [&](size_t i) { toks[i] = {starts[i], false}; });
  while (!toks.empty()) {
    UFO_STAT("par.teardown.rounds", 1);
    ensure_scratch();
    // Walks whose child is parentless are done: a surviving chain top joins
    // the frontier (deleted tops already re-rooted their children).
    for (const Token& t : toks) {
      if (hot_[t.child].parent == 0 && !t.deleted)
        root_into_frontier(t.child);
    }
    std::vector<Token> rest = filter(
        toks, [&](const Token& t) { return hot_[t.child].parent != 0; });
    if (rest.empty()) break;

    Groups<uint32_t> byp = group_by(
        rest.size(), [&](size_t i) { return hot_[rest[i].child].parent; });
    size_t ngroups = byp.keys.size();
    UFO_STAT_HIST("par.teardown.level_width", rest.size());
    UFO_STAT("par.teardown.visited", ngroups);
    // next[g]: group g's cluster, and whether it was deleted. The body
    // emits the clusters it re-roots.
    std::vector<Token> next(ngroups);
    std::vector<uint32_t> rooted = emit<uint32_t>(ngroups, [&](size_t g,
                                                               auto& out) {
      uint32_t begin = byp.start[g], end = byp.start[g + 1];
      uint32_t cur = byp.keys[g];
      Hot& ch = hot_[cur];
      // Detach walk children that were deleted at the previous level.
      bool center_gone = false;
      for (uint32_t i = begin; i < end; ++i) {
        const Token& t = rest[byp.at[i]];
        if (!t.deleted) continue;
        if (ch.center_child == t.child) center_gone = true;
        remove_child(cur, t.child);
      }
      bool deletable = ch.nbrs.size < 3 && ch.children.size < 3;
      // A pair merge whose merge edge was deleted by this batch is no
      // longer a valid merge regardless of degree drift: delete it rather
      // than keep a stale pair whose aggregates cannot be recomputed.
      if (!deletable && ch.center_child == 0 && ch.children.size == 2 &&
          !adj_contains(children(cur)[0], children(cur)[1]))
        deletable = true;
      // A high-degree merge whose center is being removed (deleted below,
      // or about to be stripped as a low-degree child) is no longer a valid
      // merge: delete cur outright. Its degree is bounded by the former
      // center's (< 3), so this preserves the update cost bound.
      if (!deletable && ch.center_child != 0) {
        if (center_gone) {
          deletable = true;
        } else {
          for (uint32_t i = begin; i < end && !deletable; ++i) {
            const Token& t = rest[byp.at[i]];
            if (!t.deleted && t.child == ch.center_child &&
                hot_[t.child].nbrs.size <= 2)
              deletable = true;
          }
        }
      }
      if (!deletable) {
        // A survivor may only shed a walk child whose every edge is
        // internal (a rake, or a pair child holding just the merge edge):
        // shedding a child with external edges would leave the survivor
        // holding stale projections of content that left it. Force-delete
        // instead — the generic doomed-adjacency cleanup handles it.
        for (uint32_t i = begin; i < end && !deletable; ++i) {
          const Token& t = rest[byp.at[i]];
          if (t.deleted || hot_[t.child].nbrs.size > 2) continue;
          for (const Adj& a : nbrs(t.child)) {
            // Atomic read: a concurrent group deleting the neighbor's
            // parent re-roots it (stores 0) in this same round. Either
            // value differs from cur, so the decision is unaffected — the
            // atomicity only keeps the unsynchronized access defined.
            uint32_t np = std::atomic_ref<uint32_t>(hot_[a.nbr].parent)
                              .load(std::memory_order_relaxed);
            if (np != cur) {
              deletable = true;
              break;
            }
          }
        }
      }
      if (deletable) {
        flags_[cur] |= kDoomed;
        for (uint32_t kid : children(cur)) {
          std::atomic_ref<uint32_t>(hot_[kid].parent)
              .store(0, std::memory_order_relaxed);
          out(kid);
        }
        next[g] = {cur, true};
      } else {
        for (uint32_t i = begin; i < end; ++i) {
          const Token& t = rest[byp.at[i]];
          if (t.deleted) continue;
          uint32_t c = t.child;
          if (hot_[c].nbrs.size > 2) continue;  // stays attached
          remove_child(cur, c);
          std::atomic_ref<uint32_t>(hot_[c].parent)
              .store(0, std::memory_order_relaxed);
          out(c);
        }
        next[g] = {cur, false};
      }
    });

    // Phase boundary: root the re-rooted clusters, queue the survivors and
    // collect the doomed.
    for (uint32_t c : rooted) root_into_frontier(c);
    for (const Token& t : next)
      if (!t.deleted) queue(t.child);
    std::vector<uint32_t> newly_doomed =
        emit<uint32_t>(ngroups, [&](size_t g, auto& out) {
          if (next[g].deleted) out(next[g].child);
        });
    doomed_list_.insert(doomed_list_.end(), newly_doomed.begin(),
                        newly_doomed.end());
    UFO_STAT("par.teardown.doomed", newly_doomed.size());
    UFO_STAT("par.teardown.survivors", ngroups - newly_doomed.size());

    // Remove this round's doomed clusters from their surviving neighbors'
    // adjacency (grouped by survivor so each list has one owner).
    std::vector<std::pair<uint32_t, Adj>> cleanup =
        emit<std::pair<uint32_t, Adj>>(
            newly_doomed.size(), [&](size_t i, auto& out) {
              uint32_t d = newly_doomed[i];
              for (const Adj& a : nbrs(d))
                if (!doomed(a.nbr)) out({a.nbr, Adj{d}});
            });
    std::vector<uint32_t> dropped = apply_adjacency(cleanup, /*insert=*/false);
    revalidate_.insert(revalidate_.end(), dropped.begin(), dropped.end());
    toks = std::move(next);
  }
}

void UfoTree::force_detach(uint32_t c) {
  uint32_t p = hot_[c].parent;
  assert(p != 0);
  remove_child(p, c);
  hot_[c].parent = 0;
  root_into_frontier(c);
  queue(p);
}

bool UfoTree::detach(std::vector<uint32_t> walk,
                     const std::vector<uint32_t>& forced) {
  if (walk.empty() && forced.empty()) return false;
  auto attached = [&](uint32_t c) {
    return alive(c) && !doomed(c) && hot_[c].parent != 0;
  };
  // Force-detaching one cluster leaves every other one's parent as it was.
  for (uint32_t c : unique_if(forced, attached)) force_detach(c);
  walk = unique_if(walk, attached);
  if (!walk.empty()) teardown_pass(walk);
  return true;
}

void UfoTree::drain_revalidate() {
  while (!revalidate_.empty()) {
    std::vector<uint32_t> check = unique_if(
        revalidate_, [&](uint32_t q) { return alive(q) && !doomed(q); });
    revalidate_.clear();
    // Collect broken participants. Walk targets (degree <= 2) go through
    // the guarded teardown; a high-degree cluster whose rake role broke is
    // detached directly. Parentless clusters are skipped — the frontier
    // round that picks them up enforces maximality itself.
    std::vector<uint32_t> walk =
        emit<uint32_t>(check.size(), [&](size_t i, auto& out) {
          uint32_t q = check[i];
          const Hot& qh = hot_[q];
          if (qh.parent == 0) return;
          if (qh.nbrs.size >= 3) {
            for (const Adj& a : nbrs(q)) {
              const Hot& wh = hot_[a.nbr];
              if (wh.nbrs.size == 1 && wh.parent != 0 &&
                  wh.parent != qh.parent)
                out(a.nbr);  // must be raked beside q
            }
          } else if (qh.nbrs.size == 1) {
            uint32_t z = nbrs(q)[0].nbr;
            const Hot& zh = hot_[z];
            if (zh.nbrs.size >= 3 && zh.parent != 0 && zh.parent != qh.parent)
              out(q);  // must be raked beside z
          }
        });
    std::vector<uint32_t> forced = filter(check, [&](uint32_t q) {
      const Hot& qh = hot_[q];
      if (qh.parent == 0 || qh.nbrs.size < 3) return false;
      uint32_t center = hot_[qh.parent].center_child;
      return center != 0 && center != q;  // a rake must have degree 1
    });
    if (!detach(std::move(walk), forced)) break;
  }
}

void UfoTree::batch_update(const std::vector<Update>& batch) {
  if (batch.empty()) return;
  UFO_SPAN("par.batch_update");
  UFO_STAT("par.batch.count", 1);
  UFO_STAT("par.batch.updates", batch.size());
  ensure_scratch();
  std::vector<Update> dels =
      filter(batch, [](const Update& u) { return u.is_delete; });
  std::vector<Update> inss =
      filter(batch, [](const Update& u) { return !u.is_delete; });
  // 1. Deleted edges leave every level of the intact chains first, so the
  //    teardown's survival guards see post-delete degrees (matches seq).
  if (!dels.empty()) {
    UFO_SPAN("par.edge_delete");
    edge_level_ops(dels, /*insert=*/false);
  }
  // 2. Path-granular teardown from the endpoint leaves.
  {
    std::vector<uint32_t> leaves(2 * batch.size());
    parallel_for(0, batch.size(), [&](size_t i) {
      assert(batch[i].u != batch[i].v && "self-loop in batch");
      leaves[2 * i] = leaf_id(batch[i].u);
      leaves[2 * i + 1] = leaf_id(batch[i].v);
    });
    teardown_pass(unique_if(leaves, [](uint32_t) { return true; }));
    drain_revalidate();
  }
  // 3. Inserted edges join every level of the surviving chains.
  if (!inss.empty()) {
    UFO_SPAN("par.edge_insert");
    edge_level_ops(inss, /*insert=*/true);
  }
  // 4. Recluster the detached frontier level-synchronously.
  {
    UFO_SPAN("par.recluster");
    contract_frontier();
  }
  // 5. Compute the aggregates of every queued cluster and its ancestors,
  //    bottom-up, once each.
  flush_dirty();
  // 6. Recycle the doomed clusters: parallel record reset, then one serial
  //    per-level slab splice at the phase boundary (core::recycle_clusters).
  {
    UFO_SPAN("par.recycle");
    UFO_STAT("par.recycled", doomed_list_.size());
    parallel_for(0, doomed_list_.size(),
                 [&](size_t i) { flags_[doomed_list_[i]] = 0; });
    recycle_clusters(doomed_list_);
    doomed_list_.clear();
  }
}

void UfoTree::contract_frontier() {
  size_t l = 0;
  while (l < frontier_.size()) {
    if (frontier_[l].empty()) {
      ++l;
      continue;
    }
    std::vector<uint32_t> batch = std::move(frontier_[l]);
    frontier_[l].clear();
    // Stay at l until it drains: a round can re-root more clusters here
    // (walklets detaching survivors never root below the level they start
    // from, so the sweep only ever moves up).
    contract_round(static_cast<int32_t>(l), std::move(batch));
  }
}

// Everything entering a round needs fresh aggregates: shed survivors lost
// a child, frontier leaves changed adjacency, and the previous round's new
// parents have none yet. The flush computes them; contraction reads only
// structure (adjacency, parents, children), and a rake-attach that caches a
// contribution computed from stale aggregates gets it replaced when the
// flush reaches the rake.
std::vector<uint32_t> UfoTree::admit(int32_t lvl,
                                     const std::vector<uint32_t>& raw) {
  std::vector<uint32_t> in = unique_if(raw, [&](uint32_t c) {
    return alive(c) && !doomed(c) && hot_[c].parent == 0 &&
           hot_[c].level == lvl;
  });
  for (uint32_t c : in) queue(c);
  return filter(in, [&](uint32_t c) { return hot_[c].nbrs.size != 0; });
}

void UfoTree::contract_round(int32_t lvl, std::vector<uint32_t> raw) {
  UFO_STAT("par.recluster.rounds", 1);
  ensure_scratch();
  std::vector<uint32_t> active = admit(lvl, raw);
  if (active.empty()) return;  // completed tree roots only

  // Phase 1: detach fixpoint. Two obligations against the surviving
  // hierarchy: (a) an active high-degree cluster must rake in every
  // degree-1 neighbor — including ones still attached to a surviving
  // parent (fanout-1 towers, never rakes or pair children, since their
  // single edge points at the active cluster); (b) an active degree-1
  // cluster next to an attached high-degree neighbor must rake-attach into
  // that neighbor's parent, so a parent that cannot center the neighbor (a
  // pair merge whose child drifted to degree >= 3) has the neighbor
  // detached instead — it then re-enters this level as an active center.
  // Each sweep's walk requests are deduplicated at the phase boundary; a
  // detached target re-enters this level and is absorbed below.
  for (;;) {
    std::vector<uint32_t> walk =
        emit<uint32_t>(active.size(), [&](size_t i, auto& out) {
          uint32_t c = active[i];
          if (hot_[c].nbrs.size < 3) return;
          for (const Adj& a : nbrs(c)) {
            uint32_t y = a.nbr;
            if (hot_[y].parent != 0 && hot_[y].nbrs.size == 1) out(y);
          }
        });
    std::vector<uint32_t> forced =
        emit<uint32_t>(active.size(), [&](size_t i, auto& out) {
          uint32_t c = active[i];
          if (hot_[c].nbrs.size != 1) return;
          uint32_t y = nbrs(c)[0].nbr;
          if (hot_[y].parent == 0 || hot_[y].nbrs.size < 3) return;
          const Hot& pyh = hot_[hot_[y].parent];
          bool can_center = pyh.center_child == y ||
                            (pyh.center_child == 0 && pyh.children.size == 1);
          if (!can_center) out(y);
        });
    if (!detach(std::move(walk), forced)) break;
    // Absorb clusters the detaches re-rooted at this level.
    std::vector<uint32_t> fresh;
    if (static_cast<size_t>(lvl) < frontier_.size()) {
      fresh = std::move(frontier_[lvl]);
      frontier_[lvl].clear();
    }
    fresh = admit(lvl, fresh);
    if (fresh.empty()) break;  // targets were all shed without new roots
    active.insert(active.end(), fresh.begin(), fresh.end());
    active = unique_if(active, [&](uint32_t c) {
      return hot_[c].parent == 0 && !doomed(c);
    });
  }

  size_t m = active.size();
  round_ = new_epoch();

  // Phase 2: roles.
  parallel_for(0, m, [&](size_t i) { set_role(active[i], kFree); });
  parallel_for(0, m, [&](size_t i) {
    uint32_t c = active[i];
    if (hot_[c].nbrs.size >= 3) set_role(c, kCenter);
  });
  // Degree-1 clusters: rake under an active center, or rake-attach into a
  // surviving superunary whose center is their (attached) neighbor (the
  // phase-1 fixpoint already detached neighbors whose parent cannot center
  // them).
  std::vector<std::pair<uint32_t, uint32_t>> engaged =  // (survivor parent, c)
      emit<std::pair<uint32_t, uint32_t>>(m, [&](size_t i, auto& out) {
        uint32_t c = active[i];
        if (hot_[c].nbrs.size != 1) return;
        uint32_t y = nbrs(c)[0].nbr;
        if (role_of(y) == kCenter) {
          set_role(c, kRaked);
        } else if (role_of(y) == kNone && hot_[y].parent != 0 &&
                   hot_[y].nbrs.size >= 3) {
          set_role(c, kEngaged);
          out({hot_[y].parent, c});
        }
      });

  // Phase B: randomized mutual-proposal matching over the remaining
  // degree <= 2 clusters (their eligible subgraph is a disjoint union of
  // paths — a contracted forest has no cycles). Each round, every unmatched
  // eligible cluster proposes to its eligible neighbor with the highest
  // salted hash; mutual proposals pair up. The hash-maximal eligible
  // cluster with an eligible neighbor always lands a mutual proposal, so a
  // round with no new pairs proves the eligible edge set empty; random
  // salts pair an expected constant fraction per round.
  std::vector<uint32_t> pairs;  // anchors; partner = proposal_[anchor]
  std::vector<uint32_t> matchable =
      filter(active, [&](uint32_t c) { return role_of(c) == kFree; });
  while (!matchable.empty()) {
    UFO_STAT("par.recluster.match_rounds", 1);
    uint64_t salt = util::hash64(round_salt_++);
    auto rank = [&](uint32_t d) { return util::hash64(salt ^ d); };
    parallel_for(0, matchable.size(), [&](size_t i) {
      uint32_t c = matchable[i];
      uint32_t best = 0;
      uint64_t besth = 0;
      for (const Adj& a : nbrs(c)) {
        uint32_t d = a.nbr;
        if (role_of(d) != kFree) continue;
        uint64_t h = rank(d);
        if (best == 0 || h > besth || (h == besth && d > best)) {
          best = d;
          besth = h;
        }
      }
      proposal_[c] = best;  // 0 = no eligible neighbor
    });
    std::vector<uint32_t> fresh = filter(matchable, [&](uint32_t c) {
      uint32_t d = proposal_[c];
      return d != 0 && proposal_[d] == c && c < d;
    });
    if (fresh.empty()) break;  // no eligible edges remain (see above)
    parallel_for(0, fresh.size(), [&](size_t i) {
      uint32_t c = fresh[i];
      set_role(c, kPaired);
      set_role(proposal_[c], kPaired);  // distinct pairs: disjoint writes
    });
    pairs.insert(pairs.end(), fresh.begin(), fresh.end());
    matchable =
        filter(matchable, [&](uint32_t c) { return role_of(c) == kFree; });
  }

  std::vector<uint32_t> centers =
      filter(active, [&](uint32_t c) { return role_of(c) == kCenter; });
  std::vector<uint32_t> singles =
      filter(active, [&](uint32_t c) { return role_of(c) == kFree; });
  UFO_STAT("par.recluster.centers", centers.size());
  UFO_STAT("par.recluster.pairs", pairs.size());
  UFO_STAT("par.recluster.singletons", singles.size());
  UFO_STAT("par.recluster.rake_attached", engaged.size());

  // Phase 3a: rake-attach into surviving superunary parents, grouped so one
  // task owns each target parent; add_child puts each rake into the
  // parent's rake index (this is the star's hot path) with a contribution
  // the flush replaces once it has computed the rake.
  if (!engaged.empty()) {
    Groups<uint32_t> eg = group_by(
        engaged.size(), [&](size_t i) { return engaged[i].first; });
    std::vector<uint8_t> target_rooted(eg.keys.size(), 0);
    parallel_for(0, eg.keys.size(), [&](size_t g) {
      uint32_t begin = eg.start[g], end = eg.start[g + 1];
      uint32_t py = eg.keys[g];
      Hot& pyh = hot_[py];
      uint32_t y = nbrs(engaged[eg.at[begin]].second)[0].nbr;
      if (pyh.center_child == 0) {
        // A fanout-1 extension of y gains its first rakes: it becomes a
        // high-degree merge centered on y (y kept degree >= 3, so its
        // boundary is already the single center vertex). Its rake index
        // is built when py is recomputed.
        assert(pyh.children.size == 1 && children(py)[0] == y);
        pyh.center_child = y;
        sizes_[py].rake_index_valid = false;
      }
      assert(pyh.center_child == y && "rake-attach target must center y");
      for (uint32_t i = begin; i < end; ++i)
        add_child(py, engaged[eg.at[i]].second);
      if (pyh.parent == 0) target_rooted[g] = 1;
    });
    for (size_t g = 0; g < eg.keys.size(); ++g) {
      queue(eg.keys[g]);
      // A parentless target re-contracts at its own level (dedup at round).
      if (target_rooted[g]) root_into_frontier(eg.keys[g]);
    }
  }

  // Phase 3b: allocate the level's new parents at the phase boundary (the
  // pool is sequential), then build them concurrently — each task owns one
  // parent and its children, so all writes are disjoint.
  size_t nc = centers.size(), np = pairs.size(), ns = singles.size();
  std::vector<uint32_t> parents(nc + np + ns);
  for (size_t i = 0; i < parents.size(); ++i)
    parents[i] = alloc_cluster(lvl + 1);
  ensure_scratch();  // the pool may have grown
  parallel_for(0, parents.size(),
               [&](size_t i) { set_role(parents[i], kFresh); });
  parallel_for(0, parents.size(), [&](size_t i) {
    uint32_t p = parents[i];
    if (i < nc) {
      uint32_t c = centers[i];
      hot_[p].center_child = c;
      add_child(p, c);
      for (const Adj& a : nbrs(c))
        if (role_of(a.nbr) == kRaked) add_child(p, a.nbr);
    } else if (i < nc + np) {
      uint32_t c = pairs[i - nc];
      uint32_t d = proposal_[c];  // stable: c left `matchable` when paired
      const Adj* a = adj_find(c, d);
      assert(a != nullptr);
      add_child(p, c);
      add_child(p, d);
      hot_[p].merge_u = a->my_end;
      hot_[p].merge_v = a->other_end;
      hot_[p].merge_w = a->w;
    } else {
      add_child(p, singles[i - nc - np]);
    }
  });

  // Phase 4: level l+1 adjacency. Every neighbor of a reclustered child has
  // a parent by now — a parent built this round (kFresh, which projects the
  // shared edge itself) or a surviving one, which gets the reciprocal entry
  // appended in a per-survivor batch. A forest has at most one edge between
  // two parents' contents, so no dedupe pass is needed.
  std::vector<std::pair<uint32_t, Adj>> recip =
      emit<std::pair<uint32_t, Adj>>(parents.size(), [&](size_t i, auto& out) {
        uint32_t p = parents[i];
        for (uint32_t c : children(p)) {
          for (const Adj& a : nbrs(c)) {
            uint32_t q = hot_[a.nbr].parent;
            assert(q != 0 && "neighbor must have been reclustered");
            if (q == p) continue;  // merge or rake edge: now internal
            assert(!adj_contains(p, q) &&
                   "duplicate projected edge: cycle in the batch?");
            nbrs_push(p, {q, a.my_end, a.other_end, a.w});
            if (role_of(q) != kFresh)
              out({q, Adj{p, a.other_end, a.my_end, a.w}});
          }
        }
      });
  std::vector<uint32_t> grown = apply_adjacency(recip, /*insert=*/true);
  revalidate_.insert(revalidate_.end(), grown.begin(), grown.end());

  // Phase 5: the new parents recluster one level up (they are queued for
  // the flush when they enter that round), and survivors whose degree
  // drifted are rechecked (their detaches land strictly above lvl, so the
  // upward sweep picks them up).
  for (uint32_t p : parents) root_into_frontier(p);
  drain_revalidate();
}

// Drains dirty_ level by level, bottom-up: recompute the level's queued
// clusters in parallel, replace their cached contributions in superunary
// parents' rake indexes (one task per parent), then queue the parents one
// level up. Every queued cluster is recomputed once, after all of its
// queued descendants, and nowhere else in the batch.
void UfoTree::flush_dirty() {
  UFO_SPAN("par.flush");
  for (size_t l = 0; l < dirty_.size(); ++l) {
    // Doomed clusters are recycled, flags and all, at the end of the batch.
    std::vector<uint32_t> items =
        filter(dirty_[l], [&](uint32_t c) { return !doomed(c); });
    dirty_[l].clear();
    if (items.empty()) continue;
    UFO_STAT("par.flush.clusters", items.size());
    parallel_for(0, items.size(), [&](size_t i) {
      recompute_aggregates(items[i]);
      flags_[items[i]] = 0;
    });
    std::vector<uint32_t> rakes = filter(items, [&](uint32_t c) {
      uint32_t p = hot_[c].parent;
      return p != 0 && !doomed(p) && rake_indexed(p, c);
    });
    Groups<uint32_t> rg = group_by(
        rakes.size(), [&](size_t i) { return hot_[rakes[i]].parent; });
    parallel_for(0, rg.keys.size(), [&](size_t g) {
      for (uint32_t i = rg.start[g]; i < rg.start[g + 1]; ++i)
        rake_index_refresh(rg.keys[g], rakes[rg.at[i]]);
    });
    std::vector<uint32_t> up(items.size());
    parallel_for(
        0, items.size(), [&](size_t i) { up[i] = hot_[items[i]].parent; },
        kBlock);
    up = unique_if(up, [&](uint32_t p) { return p != 0 && flags_[p] == 0; });
    if (up.empty()) continue;
    parallel_for(0, up.size(), [&](size_t i) { flags_[up[i]] = kQueued; },
                 kBlock);
    if (dirty_.size() == l + 1) dirty_.emplace_back();
    dirty_[l + 1].insert(dirty_[l + 1].end(), up.begin(), up.end());
  }
}

}  // namespace ufo::par
