// Sequential UFO tree updates: Algorithm 1 (DeleteAncestors with the
// high-degree / high-fanout survival guard), Algorithm 2 (update with
// high-degree reclustering), multi-level edge walks, and the
// shared-reclustering batch variant. The cluster pools, aggregate
// maintenance, and queries live in core::UfoCore (src/core/ufo_core.cc).
#include "seq/ufo_tree.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ufo::seq {

UfoTree::UfoTree(size_t n, core::Aggregates a) : core::UfoCore(n, a) {
  roots_.resize(1);
}

void UfoTree::add_root(uint32_t c) {
  size_t lvl = static_cast<size_t>(hot_[c].level);
  if (roots_.size() <= lvl) roots_.resize(lvl + 1);
  roots_[lvl].push_back(c);
}

void UfoTree::mark_dirty(uint32_t c) { dirty_.push_back(c); }

// Algorithm 1. Walks the ancestor path of c. Low-degree/low-fanout
// ancestors are deleted (children become root clusters); surviving
// ancestors shed a low-degree (<= 2) child but keep high-degree children
// attached, since such a child is the center of its parent's merge.
void UfoTree::delete_ancestors(uint32_t c) {
  uint32_t prev = c;
  bool prev_deleted = false;
  uint32_t cur = hot_[c].parent;
  if (cur == 0) {
    add_root(c);
    return;
  }
  while (cur != 0) {
    uint32_t next = hot_[cur].parent;
    bool deletable = hot_[cur].nbrs.size < 3 && hot_[cur].children.size < 3;
    // A high-degree merge whose center is being removed (deleted below cur,
    // or about to be stripped as a low-degree child) is no longer a valid
    // merge: delete cur outright, rooting all its children. Its degree is
    // bounded by the former center's (< 3), so this preserves the update
    // cost bound.
    if (!deletable && hot_[cur].center_child == prev &&
        hot_[cur].center_child != 0 &&
        (prev_deleted ||
         (hot_[prev].parent == cur && hot_[prev].nbrs.size <= 2)))
      deletable = true;
    if (deletable) {
      for (const Adj& a : nbrs(cur)) adj_remove(a.nbr, cur);
      for (uint32_t ch : children(cur)) {
        hot_[ch].parent = 0;
        add_root(ch);
      }
      if (next != 0) {
        remove_child(next, cur);
        // If next survives the walk its contents shrank; refresh later.
        mark_dirty(next);
      }
      UFO_STAT("seq.teardown.deleted", 1);
      free_cluster(cur);
    } else if (!prev_deleted && hot_[prev].nbrs.size <= 2 &&
               hot_[prev].parent == cur) {
      // Disconnect the low-degree child from its surviving parent; the
      // parent's contents shrink, so its chain needs aggregate refreshes.
      remove_child(cur, prev);
      hot_[prev].parent = 0;
      add_root(prev);
      mark_dirty(cur);
      UFO_STAT("seq.teardown.shed", 1);
    }
    prev = cur;
    prev_deleted = deletable;
    cur = next;
  }
}

void UfoTree::delete_ancestors_all(uint32_t c) {
  uint32_t cur = hot_[c].parent;
  if (cur == 0) {
    add_root(c);
    return;
  }
  while (cur != 0) {
    uint32_t next = hot_[cur].parent;
    for (const Adj& a : nbrs(cur)) adj_remove(a.nbr, cur);
    for (uint32_t ch : children(cur)) {
      hot_[ch].parent = 0;
      add_root(ch);
    }
    if (next != 0) {
      remove_child(next, cur);
      mark_dirty(next);
    }
    UFO_STAT("seq.teardown.deleted", 1);
    free_cluster(cur);
    cur = next;
  }
}

void UfoTree::dissolve(uint32_t c) {
  for (const Adj& a : nbrs(c)) {
    adj_remove(a.nbr, c);
    mark_dirty(a.nbr);
  }
  for (uint32_t ch : children(c)) {
    hot_[ch].parent = 0;
    add_root(ch);
  }
  free_cluster(c);
}

void UfoTree::repair(uint32_t c) {
  if (!alive(c) || hot_[c].children.size == 0) return;  // leaves are safe
  core::Span<const Adj> cn = nbrs(c);
  // Own boundary invariant: <= 2 distinct boundary vertices, and exactly 1
  // when degree >= 3.
  Vertex b0 = kNoVertex, b1 = kNoVertex;
  bool own_bad = false;
  for (const Adj& a : cn) {
    if (b0 == kNoVertex || b0 == a.my_end) {
      b0 = a.my_end;
    } else if (b1 == kNoVertex || b1 == a.my_end) {
      b1 = a.my_end;
    } else {
      own_bad = true;
    }
  }
  if (cn.size() >= 3 && b1 != kNoVertex) own_bad = true;
  if (own_bad) {
    delete_ancestors_all(c);
    dissolve(c);
    return;
  }
  uint32_t p = hot_[c].parent;
  if (p == 0) return;
  const Hot& ph = hot_[p];
  bool role_bad = false;
  if (ph.center_child != 0 && ph.center_child != c) {
    // c is a rake: must keep exactly one edge, to the center.
    role_bad = cn.size() != 1 || cn[0].nbr != ph.center_child;
  } else if (ph.center_child == 0 && ph.children.size == 2) {
    core::Span<const uint32_t> kids = children(p);
    uint32_t sib = kids[0] == c ? kids[1] : kids[0];
    role_bad = !adj_contains(c, sib);  // pair's merge edge must persist
  }
  if (role_bad) {
    delete_ancestors_all(c);  // roots c; parent and above rebuilt
  }
}

// Insert or remove edge (u, v) at every level where the ancestor chains of
// both endpoints have distinct clusters (Algorithm 2, line 2). Surviving
// chains are centered on their vertex, so entries attach at the boundary.
void UfoTree::edge_walk(Vertex u, Vertex v, Weight w, bool insert) {
  uint32_t a = leaf_id(u), b = leaf_id(v);
  UFO_OBS_ONLY(int64_t levels = 0;)
  while (a != 0 && b != 0 && a != b) {
    UFO_OBS_ONLY(++levels;)
    if (insert) {
      assert(!adj_contains(a, b));
      nbrs_push(a, {b, u, v, w});
      nbrs_push(b, {a, v, u, w});
    } else {
      assert(adj_contains(a, b));
      adj_remove(a, b);
      adj_remove(b, a);
    }
    mark_dirty(a);
    mark_dirty(b);
    a = hot_[a].parent;
    b = hot_[b].parent;
  }
  UFO_STAT_HIST("seq.edge_walk.levels", levels);
}

void UfoTree::link(Vertex u, Vertex v, Weight w) {
  assert(u != v && !connected(u, v));
  const Update up{u, v, w, false};
  update({&up, 1});
}

void UfoTree::cut(Vertex u, Vertex v) {
  assert(has_edge(u, v));
  const Update up{u, v, 0, true};
  update({&up, 1});
}

void UfoTree::batch_update(const std::vector<Update>& batch) {
  update(batch);
}

void UfoTree::update(std::span<const Update> batch) {
  UFO_SPAN("seq.batch_update");
  UFO_STAT("seq.batch.count", 1);
  UFO_STAT("seq.batch.updates", batch.size());
  // Phase 1: remove all deleted edges at every level *before* deleting
  // ancestors: the walk needs the intact parent chains to reach entries
  // that earlier updates propagated above the chains' current common
  // height. (The survival guards in delete_ancestors consequently see
  // post-cut degrees, which also retires merges whose center degraded
  // below degree 3.)
  for (const Update& up : batch)
    if (up.is_delete) edge_walk(up.u, up.v, 0, /*insert=*/false);
  // Phase 2: one ancestor-deletion walk per distinct endpoint.
  endpoints_.clear();
  for (const Update& up : batch) {
    endpoints_.push_back(up.u);
    endpoints_.push_back(up.v);
  }
  std::sort(endpoints_.begin(), endpoints_.end());
  endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                   endpoints_.end());
  for (Vertex v : endpoints_) delete_ancestors(leaf_id(v));
  // Phase 3: insert new edges along the surviving chains.
  for (const Update& up : batch)
    if (!up.is_delete) edge_walk(up.u, up.v, up.w, /*insert=*/true);
  // Phase 4: repair drifted merges and root the chain tops: the surviving
  // top of each chain is parentless, and with its degree changed it must
  // participate in reclustering (e.g. a preserved tree-root cluster that
  // now has an edge to the other tree).
  for (Vertex v : endpoints_) {
    for (uint32_t c = hot_[leaf_id(v)].parent; c != 0;) {
      uint32_t up = hot_[c].parent;
      repair(c);
      c = up;
    }
  }
  for (Vertex v : endpoints_) add_root(tree_root(v));
  // Phase 5: one shared level-synchronous reclustering, then the one
  // aggregate pass. Every phase above only marks clusters dirty; the
  // edge walks mark both endpoint leaves.
  recluster();
  flush_dirty();
}

void UfoTree::batch_link(const std::vector<Edge>& edges) {
  std::vector<Update> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back({e.u, e.v, e.w, false});
  batch_update(batch);
}

void UfoTree::batch_cut(const std::vector<Edge>& edges) {
  std::vector<Update> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back({e.u, e.v, e.w, true});
  batch_update(batch);
}

// Algorithm 2, lines 3-40: recluster level by level. Phase A gives every
// high-degree root cluster a parent and rakes in all of its degree-1
// neighbors; phase B pairs the remaining degree <= 2 root clusters.
void UfoTree::recluster() {
  UFO_SPAN("seq.recluster");
  for (size_t lvl = 0; lvl < roots_.size(); ++lvl) {
   // Deletions above can re-root clusters at the level being processed;
   // drain until the level is quiescent, and only then rebuild adjacency
   // (rebuild requires every neighbor to have a parent).
   while (!roots_[lvl].empty()) {
    std::vector<uint32_t> changed;
    while (!roots_[lvl].empty()) {
    std::vector<uint32_t> batch = std::move(roots_[lvl]);
    roots_[lvl].clear();
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
    auto is_root = [&](uint32_t x) {
      return hot_[x].level == static_cast<int32_t>(lvl) &&
             hot_[x].parent == 0;
    };
    auto merges = [&](uint32_t y) {
      uint32_t py = hot_[y].parent;
      return py != 0 && hot_[py].children.size >= 2;
    };

    // Phase A: high-degree root clusters rake in all degree-1 neighbors.
    for (uint32_t x : batch) {
      if (!is_root(x) || hot_[x].nbrs.size < 3) continue;
      uint32_t p = alloc_cluster(static_cast<int32_t>(lvl) + 1);
      hot_[p].center_child = x;
      add_child(p, x);
      add_root(p);
      changed.push_back(p);
      for (const Adj& a : nbrs(x)) {
        uint32_t y = a.nbr;
        if (hot_[y].nbrs.size != 1) continue;
        if (hot_[y].parent != 0) delete_ancestors(y);
        add_child(p, y);
      }
    }

    // Phase B: remaining degree 1 and 2 root clusters.
    for (uint32_t x : batch) {
      if (!is_root(x)) continue;
      core::Span<const Adj> xn = nbrs(x);  // slab storage: stable across allocs
      size_t d = xn.size();
      if (d == 0) continue;  // completed tree root
      bool merged = false;
      if (d == 2) {
        for (const Adj& a : xn) {
          uint32_t y = a.nbr;
          if (hot_[y].nbrs.size > 2 || merges(y)) continue;
          if (hot_[y].parent != 0) {
            uint32_t py = hot_[y].parent;  // fanout-1 extension of y
            delete_ancestors(py);          // detaches py (low degree)
            assert(hot_[py].parent == 0);
            hot_[py].center_child = 0;  // becomes a plain pair merge
            sizes_[py].rake_index_valid = false;
            add_child(py, x);
            hot_[py].merge_u = a.other_end;  // inside y = children[0]
            hot_[py].merge_v = a.my_end;
            hot_[py].merge_w = a.w;
            changed.push_back(py);
          } else {
            uint32_t p = alloc_cluster(static_cast<int32_t>(lvl) + 1);
            add_child(p, x);
            add_child(p, y);
            hot_[p].merge_u = a.my_end;
            hot_[p].merge_v = a.other_end;
            hot_[p].merge_w = a.w;
            add_root(p);
            changed.push_back(p);
          }
          merged = true;
          break;
        }
      } else if (d == 1) {
        const Adj a = xn[0];
        uint32_t y = a.nbr;
        size_t dy = hot_[y].nbrs.size;
        if (hot_[y].parent != 0 && !merges(y)) {
          uint32_t py = hot_[y].parent;
          delete_ancestors(py);
          sizes_[py].rake_index_valid = false;  // merge shape changed
          add_child(py, x);
          if (dy >= 3) {
            hot_[py].center_child = y;  // becomes a high-degree merge
          } else {
            hot_[py].center_child = 0;  // becomes a plain pair merge
            hot_[py].merge_u = a.other_end;
            hot_[py].merge_v = a.my_end;
            hot_[py].merge_w = a.w;
          }
          if (hot_[py].parent == 0) {
            changed.push_back(py);  // rooted by delete_ancestors
          } else {
            // py kept its high-degree attachment; x's single edge is
            // internal, so only aggregates up the chain need refreshing.
            assert(dy >= 3);
            mark_dirty(py);
          }
          merged = true;
        } else if (hot_[y].parent != 0 && dy >= 3) {
          // y is the center of an existing high-degree merge: rake x on.
          uint32_t py = hot_[y].parent;
          assert(hot_[py].center_child == y);
          delete_ancestors(py);  // may or may not detach py
          add_child(py, x);
          mark_dirty(py);  // py gains x's content; a rake's edge is
                           // internal, so py's adjacency is unchanged
          if (hot_[py].parent == 0) add_root(py);
          merged = true;
        } else if (hot_[y].parent == 0) {
          assert(dy <= 2 && "phase A handles high-degree roots");
          uint32_t p = alloc_cluster(static_cast<int32_t>(lvl) + 1);
          add_child(p, x);
          add_child(p, y);
          hot_[p].merge_u = a.my_end;
          hot_[p].merge_v = a.other_end;
          hot_[p].merge_w = a.w;
          add_root(p);
          changed.push_back(p);
          merged = true;
        }
      }
      if (!merged) {
        uint32_t p = alloc_cluster(static_cast<int32_t>(lvl) + 1);
        add_child(p, x);
        add_root(p);
        changed.push_back(p);
      }
    }

    }  // level quiescent; now rebuild adjacency for all new parents

    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    std::vector<uint32_t> touched;
    for (uint32_t p : changed) {
      if (!alive(p)) continue;
      rebuild_adjacency(p, &touched);
      mark_dirty(p);
    }
    // Attached survivors whose adjacency was touched may have gained or
    // lost a boundary vertex — possibly invalidating their role in their
    // parent's merge (degree drift), so repair them.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (uint32_t q : touched) repair(q);
    for (uint32_t q : touched) {
      if (!alive(q)) continue;
      mark_dirty(q);
      // A parentless touched cluster (e.g. a completed tree root that just
      // gained a propagated edge) must recluster at its own level.
      if (hot_[q].parent == 0) add_root(q);
    }
    UFO_STAT("seq.recluster.changed", changed.size());
   }
   // A repair below the current level re-roots clusters there; rewind.
   for (size_t back = 0; back <= lvl; ++back) {
     if (!roots_[back].empty()) {
       lvl = back - 1;  // loop ++ brings us to `back`
       break;
     }
   }
  }
  roots_.assign(1, {});
}

void UfoTree::rebuild_adjacency(uint32_t p, std::vector<uint32_t>* touched) {
  for (const Adj& a : nbrs(p)) {
    adj_remove(a.nbr, p);
    touched->push_back(a.nbr);  // its boundary set may have shrunk
  }
  nbrs_clear(p);
  for (uint32_t c : children(p)) {
    for (const Adj& a : nbrs(c)) {
      uint32_t q = hot_[a.nbr].parent;
#ifndef NDEBUG
      if (q == 0)
        std::fprintf(stderr,
                     "rebuild %u (lvl %d): child %u neighbor %u (lvl %d, "
                     "deg %u) has no parent\n",
                     p, hot_[p].level, c, a.nbr, hot_[a.nbr].level,
                     hot_[a.nbr].nbrs.size);
#endif
      assert(q != 0 && "neighbor must have been reclustered");
      if (q == p) continue;
      if (!adj_contains(p, q)) nbrs_push(p, {q, a.my_end, a.other_end, a.w});
      if (!adj_contains(q, p)) {
        nbrs_push(q, {p, a.other_end, a.my_end, a.w});
        touched->push_back(q);  // may have gained a boundary vertex
      }
    }
  }
}

// The only place seq updates compute aggregates: a bottom-up pass over
// per-level buckets of dirty clusters. Each is recomputed once, after every
// dirty cluster below it; its cached entry in a superunary parent's rake
// index is refreshed once (rake_index_add may have cached it from a stale
// record mid-batch; the refresh removes exactly that and re-caches); and
// the parent is queued once, one level up.
void UfoTree::flush_dirty() {
  for (uint32_t c : dirty_) {
    if (!alive(c)) continue;
    size_t lvl = static_cast<size_t>(hot_[c].level);
    if (levels_.size() <= lvl) levels_.resize(lvl + 1);
    levels_[lvl].push_back(c);
  }
  dirty_.clear();
  for (size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].empty()) continue;
    // Grow before taking a reference: growth moves the buckets.
    if (levels_.size() == l + 1) levels_.emplace_back();
    std::vector<uint32_t>& items = levels_[l];
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    for (uint32_t c : items) {
      recompute_aggregates(c);
      uint32_t p = hot_[c].parent;
      if (p == 0) continue;
      if (rake_indexed(p, c)) rake_index_refresh(p, c);
      levels_[l + 1].push_back(p);
    }
    items.clear();
  }
}

}  // namespace ufo::seq
