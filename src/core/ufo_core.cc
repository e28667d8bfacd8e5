// UfoCore implementation: SoA cluster pools, aggregate maintenance
// (including the incremental rake index), and the full query suite
// (App. C.2). The update algorithms live in the backends
// (src/seq/ufo_tree.cc and src/parallel/par_ufo_tree.cc).
#include "core/ufo_core.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/capabilities.h"
#include "obs/metrics.h"
#include "parallel/primitives.h"
#include "util/random.h"

namespace ufo::core {

UfoCore::UfoCore(size_t n, Aggregates a)
    : n_(n), agg_(a), vweight_(n, 1), marked_(n, 0) {
  hot_.resize(n + 1);
  sizes_.resize(n + 1);
  if (agg_ == Aggregates::kAll) cold_.resize(n + 1);
  for (Vertex v = 0; v < n; ++v) {
    hot_[leaf_id(v)].leaf_vertex = v;
    hot_[leaf_id(v)].level = 0;
    refresh_leaf(leaf_id(v));
  }
  live_clusters_ = n;
}

void UfoCore::refresh_leaf(uint32_t leaf) {
  sizes_[leaf].n_verts = 1;
  if (agg_ == Aggregates::kSize) return;
  const Hot& h = hot_[leaf];
  Cold& c = cold_[leaf];
  Vertex v = h.leaf_vertex;
  c.sub_sum = vweight_[v];
  c.path_sum = 0;
  c.path_max = kNegInf;
  c.path_len = 0;
  c.bv[0] = h.nbrs.size == 0 ? kNoVertex : v;
  c.bv[1] = kNoVertex;
  c.max_dist[0] = c.max_dist[1] = 0;
  c.sum_dist[0] = c.sum_dist[1] = 0;
  c.marked_count = marked_[v] ? 1 : 0;
  c.marked_dist[0] = c.marked_dist[1] = marked_[v] ? 0 : kInf;
  c.diam = 0;
}

namespace {

// Grow a slab to a power-of-two capacity >= want: allocate, copy the live
// prefix, recycle the old slab into the pool's per-level freelists.
template <class Pool, class List>
void slab_grow(Pool& pool, List& l, uint32_t want, int32_t level) {
  uint32_t ncap = pow2_at_least(want, Pool::kMinCap);
  if (ncap <= l.cap) return;
  uint32_t nh = pool.alloc(ncap, level);
  if (l.size) std::copy_n(pool.ptr(l.head), l.size, pool.ptr(nh));
  if (l.cap) pool.free_slab(l.head, l.cap, level);
  l.head = nh;
  l.cap = ncap;
}

}  // namespace

uint32_t UfoCore::alloc_cluster(int32_t level) {
  uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    // Freed records were zeroed at reset; slabs went back to the pools.
  } else {
    id = pool_size();
    hot_.emplace_back();
    sizes_.emplace_back();
    if (agg_ == Aggregates::kAll) cold_.emplace_back();
  }
  hot_[id].level = level;
  ++live_clusters_;
  UFO_STAT("core.cluster.allocs", 1);
  return id;
}

void UfoCore::free_cluster(uint32_t c) {
  reset_cluster(c);
  free_.push_back(c);
}

void UfoCore::reset_cluster(uint32_t c) {
  Hot& h = hot_[c];
  int32_t level = h.level;
  if (h.adj_index != kNullSlab)
    idx_pool_.free_slab(h.adj_index, 2 * h.nbrs.cap, level);
  if (h.nbrs.cap) adj_pool_.free_slab(h.nbrs.head, h.nbrs.cap, level);
  if (h.children.cap)
    child_pool_.free_slab(h.children.head, h.children.cap, level);
  if (agg_ == Aggregates::kAll) {
    if (cold_[c].rake != kNullSlab) rake_pool_.free_obj(cold_[c].rake);
    cold_[c] = Cold{};
  }
  h = Hot{};
  h.level = kFreedLevel;
  sizes_[c] = SizeRec{};
  --live_clusters_;
  UFO_STAT("core.cluster.frees", 1);
}

void UfoCore::recycle_clusters(const std::vector<uint32_t>& ids) {
  // Parallel part: zero the records, stash the slab handles. Serial part:
  // splice every handle into the pool freelists and the ids into free_ —
  // the "slab reset + freelist splice" bulk teardown.
  struct Freed {
    ListRef nbrs;
    ListRef children;
    uint32_t idx;
    uint32_t rake;
    int32_t level;
  };
  std::vector<Freed> freed(ids.size());
  par::parallel_for(0, ids.size(), [&](size_t i) {
    uint32_t c = ids[i];
    Hot& h = hot_[c];
    freed[i] = {h.nbrs, h.children, h.adj_index, kNullSlab, h.level};
    if (agg_ == Aggregates::kAll) {
      freed[i].rake = cold_[c].rake;
      cold_[c] = Cold{};
    }
    h = Hot{};
    h.level = kFreedLevel;
    sizes_[c] = SizeRec{};
  });
  for (size_t i = 0; i < ids.size(); ++i) {
    const Freed& f = freed[i];
    if (f.idx != kNullSlab) idx_pool_.free_slab(f.idx, 2 * f.nbrs.cap, f.level);
    if (f.nbrs.cap) adj_pool_.free_slab(f.nbrs.head, f.nbrs.cap, f.level);
    if (f.children.cap)
      child_pool_.free_slab(f.children.head, f.children.cap, f.level);
    if (f.rake != kNullSlab) rake_pool_.free_obj(f.rake);
    free_.push_back(ids[i]);
  }
  live_clusters_ -= ids.size();
  UFO_STAT("core.recycle.clusters", ids.size());
}

// --- Pooled list mutation ---------------------------------------------------

void UfoCore::nbrs_push(uint32_t c, const Adj& a) {
  Hot& h = hot_[c];
  if (h.nbrs.size == h.nbrs.cap) {
    bool had_idx = h.adj_index != kNullSlab;
    if (had_idx) adj_index_drop(c);  // capacity is about to change
    slab_grow(adj_pool_, h.nbrs, h.nbrs.size + 1, h.level);
    if (had_idx) adj_index_build(c);
  }
  adj_pool_.ptr(h.nbrs.head)[h.nbrs.size++] = a;
  if (h.adj_index != kNullSlab)
    adj_index_insert(c, a.nbr, h.nbrs.size - 1);
  else if (h.nbrs.size >= kAdjIdxThreshold)
    adj_index_build(c);
}

void UfoCore::nbrs_reserve(uint32_t c, uint32_t total) {
  Hot& h = hot_[c];
  if (total <= h.nbrs.cap) return;
  bool had_idx = h.adj_index != kNullSlab;
  if (had_idx) adj_index_drop(c);
  slab_grow(adj_pool_, h.nbrs, total, h.level);
  if (had_idx) adj_index_build(c);
}

void UfoCore::nbrs_clear(uint32_t c) {
  adj_index_drop(c);
  hot_[c].nbrs.size = 0;
}

void UfoCore::children_push(uint32_t p, uint32_t c) {
  Hot& h = hot_[p];
  if (h.children.size == h.children.cap)
    slab_grow(child_pool_, h.children, h.children.size + 1, h.level);
  child_pool_.ptr(h.children.head)[h.children.size++] = c;
}

// --- Adjacency hash index ---------------------------------------------------
// Open-addressing linear probing over uint64 slots (key << 32 | pos, 0 =
// empty; keys are cluster ids >= 1). Capacity is always 2 * nbrs.cap — both
// powers of two — so the table needs no stored metadata and load stays
// <= 50%. Deletion backward-shifts the probe run, so there are no
// tombstones and lookups never degrade.

void UfoCore::adj_index_build(uint32_t c) {
  Hot& h = hot_[c];
  assert(h.adj_index == kNullSlab);
  uint32_t icap = 2 * h.nbrs.cap;
  h.adj_index = idx_pool_.alloc(icap, h.level);
  std::fill_n(idx_pool_.ptr(h.adj_index), icap, uint64_t{0});
  const Adj* arr = adj_pool_.ptr(h.nbrs.head);
  for (uint32_t i = 0; i < h.nbrs.size; ++i)
    adj_index_insert(c, arr[i].nbr, i);
  UFO_STAT("core.adj_index.builds", 1);
}

void UfoCore::adj_index_drop(uint32_t c) {
  Hot& h = hot_[c];
  if (h.adj_index == kNullSlab) return;
  idx_pool_.free_slab(h.adj_index, 2 * h.nbrs.cap, h.level);
  h.adj_index = kNullSlab;
  UFO_STAT("core.adj_index.drops", 1);
}

void UfoCore::maybe_drop_index(uint32_t c) {
  if (hot_[c].adj_index != kNullSlab &&
      hot_[c].nbrs.size < kAdjIdxThreshold / 2)
    adj_index_drop(c);
}

void UfoCore::adj_index_insert(uint32_t c, uint32_t key, uint32_t pos) {
  Hot& h = hot_[c];
  uint64_t* tab = idx_pool_.ptr(h.adj_index);
  uint32_t mask = 2 * h.nbrs.cap - 1;
  uint32_t i = static_cast<uint32_t>(util::hash64(key)) & mask;
  while (tab[i] != 0) i = (i + 1) & mask;
  tab[i] = (static_cast<uint64_t>(key) << 32) | pos;
}

uint32_t UfoCore::adj_index_find(uint32_t c, uint32_t key) const {
  const Hot& h = hot_[c];
  const uint64_t* tab = idx_pool_.ptr(h.adj_index);
  uint32_t mask = 2 * h.nbrs.cap - 1;
  uint32_t i = static_cast<uint32_t>(util::hash64(key)) & mask;
  while (tab[i] != 0) {
    if (static_cast<uint32_t>(tab[i] >> 32) == key)
      return static_cast<uint32_t>(tab[i]);
    i = (i + 1) & mask;
  }
  return kNullSlab;
}

void UfoCore::adj_index_set_pos(uint32_t c, uint32_t key, uint32_t pos) {
  Hot& h = hot_[c];
  uint64_t* tab = idx_pool_.ptr(h.adj_index);
  uint32_t mask = 2 * h.nbrs.cap - 1;
  uint32_t i = static_cast<uint32_t>(util::hash64(key)) & mask;
  while (static_cast<uint32_t>(tab[i] >> 32) != key) {
    assert(tab[i] != 0 && "adj_index_set_pos: key not present");
    i = (i + 1) & mask;
  }
  tab[i] = (static_cast<uint64_t>(key) << 32) | pos;
}

void UfoCore::adj_index_erase(uint32_t c, uint32_t key) {
  Hot& h = hot_[c];
  uint64_t* tab = idx_pool_.ptr(h.adj_index);
  uint32_t mask = 2 * h.nbrs.cap - 1;
  uint32_t i = static_cast<uint32_t>(util::hash64(key)) & mask;
  while (static_cast<uint32_t>(tab[i] >> 32) != key) {
    assert(tab[i] != 0 && "adj_index_erase: key not present");
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole if its home slot precedes the hole (cyclically).
  uint32_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (tab[j] == 0) break;
    uint32_t home = static_cast<uint32_t>(
                        util::hash64(static_cast<uint32_t>(tab[j] >> 32))) &
                    mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      tab[i] = tab[j];
      i = j;
    }
  }
  tab[i] = 0;
}

// --- Adjacency --------------------------------------------------------------

bool UfoCore::adj_contains(uint32_t c, uint32_t d) const {
  if (hot_[c].adj_index != kNullSlab) return adj_index_find(c, d) != kNullSlab;
  for (const Adj& a : nbrs(c))
    if (a.nbr == d) return true;
  return false;
}

const UfoCore::Adj* UfoCore::adj_find(uint32_t c, uint32_t d) const {
  if (hot_[c].adj_index != kNullSlab) {
    uint32_t pos = adj_index_find(c, d);
    return pos == kNullSlab ? nullptr : &nbrs(c)[pos];
  }
  for (const Adj& a : nbrs(c))
    if (a.nbr == d) return &a;
  return nullptr;
}

void UfoCore::adj_remove(uint32_t c, uint32_t d) {
  Hot& h = hot_[c];
  if (h.nbrs.size == 0) return;
  Adj* arr = adj_pool_.ptr(h.nbrs.head);
  if (h.adj_index != kNullSlab) {
    uint32_t pos = adj_index_find(c, d);
    if (pos == kNullSlab) return;
    adj_index_erase(c, d);
    uint32_t last = h.nbrs.size - 1;
    if (pos != last) {
      arr[pos] = arr[last];
      adj_index_set_pos(c, arr[pos].nbr, pos);
    }
    --h.nbrs.size;
    maybe_drop_index(c);
    return;
  }
  for (uint32_t i = 0; i < h.nbrs.size; ++i) {
    if (arr[i].nbr == d) {
      arr[i] = arr[h.nbrs.size - 1];
      --h.nbrs.size;
      return;
    }
  }
}

void UfoCore::adj_remove_batch(uint32_t c, Span<const uint32_t> targets) {
  if (targets.empty()) return;
  Hot& h = hot_[c];
  assert(h.nbrs.size >= targets.size());
  Adj* arr = adj_pool_.ptr(h.nbrs.head);
  if (h.adj_index != kNullSlab) {
    // O(targets): each removal is an indexed lookup + swap-from-end. Order
    // independent because the moved entry's index slot is updated in place.
    for (uint32_t d : targets) {
      uint32_t pos = adj_index_find(c, d);
      assert(pos != kNullSlab && "batch removal target not adjacent");
      adj_index_erase(c, d);
      uint32_t last = h.nbrs.size - 1;
      if (pos != last) {
        arr[pos] = arr[last];
        adj_index_set_pos(c, arr[pos].nbr, pos);
      }
      --h.nbrs.size;
    }
    maybe_drop_index(c);
    return;
  }
  // One compaction pass against the sorted target list.
  uint32_t w = 0;
  for (uint32_t i = 0; i < h.nbrs.size; ++i) {
    if (!std::binary_search(targets.begin(), targets.end(), arr[i].nbr))
      arr[w++] = arr[i];
  }
  assert(h.nbrs.size - w == targets.size() &&
         "batch removal targets must all be adjacent");
  h.nbrs.size = w;
}

uint32_t UfoCore::tree_root(Vertex v) const {
  uint32_t c = leaf_id(v);
  while (hot_[c].parent != 0) c = hot_[c].parent;
  return c;
}

void UfoCore::tree_roots(const Vertex* vs, size_t n, uint32_t* out) const {
  const Hot* hot = hot_.data();
  for (size_t base = 0; base < n; base += kRootGroup) {
    const size_t g = std::min(kRootGroup, n - base);
    uint32_t* c = out + base;  // the group's chains climb in place
    // A root's parent is 0, so a finished chain stays put; the group ends
    // after the first sweep that moves no chain. The first sweep also
    // reads the leaves.
    uint32_t moved = 0;
    for (size_t i = 0; i < g; ++i) {
      const uint32_t leaf = leaf_id(vs[base + i]);
      const uint32_t p = hot[leaf].parent;
      moved |= p;
      c[i] = p != 0 ? p : leaf;
    }
    while (moved != 0) {
      moved = 0;
      for (size_t i = 0; i < g; ++i) {
        const uint32_t p = hot[c[i]].parent;
        moved |= p;
        c[i] = p != 0 ? p : c[i];
      }
    }
  }
}

void UfoCore::add_child(uint32_t p, uint32_t c) {
  hot_[c].parent = p;
  hot_[c].pos_in_parent = hot_[p].children.size;
  children_push(p, c);
  if (rake_indexed(p, c)) rake_index_add(p, c);
}

void UfoCore::remove_child(uint32_t p, uint32_t c) {
  if (rake_indexed(p, c)) rake_index_remove(p, c);
  Hot& ph = hot_[p];
  uint32_t* kids = child_pool_.ptr(ph.children.head);
  uint32_t idx = hot_[c].pos_in_parent;
  assert(idx < ph.children.size && kids[idx] == c);
  uint32_t last = kids[ph.children.size - 1];
  kids[idx] = last;
  hot_[last].pos_in_parent = idx;
  --ph.children.size;
}

size_t UfoCore::degree(Vertex v) const { return hot_[leaf_id(v)].nbrs.size; }

bool UfoCore::has_edge(Vertex u, Vertex v) const {
  return adj_contains(leaf_id(u), leaf_id(v));
}

void UfoCore::set_vertex_weight(Vertex v, Weight w) {
  vweight_[v] = w;
  if (agg_ == Aggregates::kAll) recompute_chain(leaf_id(v));
}

void UfoCore::set_mark(Vertex v, bool m) {
  marked_[v] = m ? 1 : 0;
  if (agg_ == Aggregates::kAll) recompute_chain(leaf_id(v));
}

void UfoCore::recompute_chain(uint32_t c) {
  uint32_t cur = c;
  while (cur != 0) {
    recompute_aggregates(cur);
    uint32_t par = hot_[cur].parent;
    if (par != 0 && rake_indexed(par, cur)) rake_index_refresh(par, cur);
    cur = par;
  }
}

// --- Rake index -------------------------------------------------------------

void UfoCore::rake_ensure(uint32_t p) {
  if (cold_[p].rake == kNullSlab) {
    cold_[p].rake = rake_pool_.alloc();
    rake_pool_.at(cold_[p].rake).clear();  // recycled object may hold stale data
  }
}

// r hangs off the center vertex, so its depth includes the rake edge hop.
UfoCore::RakeContrib UfoCore::rake_contrib(uint32_t r) const {
  const Cold& rc = cold_[r];
  int sr = boundary_slot(
      rc, hot_[r].nbrs.size == 0 ? kNoVertex : nbrs(r)[0].my_end);
  RakeContrib k;
  k.depth = 1 + (sr >= 0 ? rc.max_dist[sr] : 0);
  k.mark = sr >= 0 && rc.marked_dist[sr] < kInf ? 1 + rc.marked_dist[sr] : kInf;
  k.sumdist = (sr >= 0 ? rc.sum_dist[sr] : 0) + rc.sub_sum;
  k.sub = rc.sub_sum;
  k.diam = static_cast<uint32_t>(rc.diam);
  k.marked = rc.marked_count;
  return k;
}

// Caches rake r's contribution on r, so that removal is exact, and adds it.
void UfoCore::rake_index_add(uint32_t p, uint32_t r) {
  sizes_[r].contrib_nverts = sizes_[r].n_verts;
  sizes_[p].rake_nverts += sizes_[r].contrib_nverts;
  if (agg_ == Aggregates::kSize) return;
  const RakeContrib& k = cold_[r].contrib = rake_contrib(r);
  rake_ensure(p);
  RakeIndex& ri = rake_of(p);
  ri.depths.insert(k.depth);
  if (k.mark < kInf) ri.marks.insert(k.mark);
  ri.diams.insert(k.diam);
  ri.sub_total += k.sub;
  ri.sumdist_total += k.sumdist;
  ri.marked_total += k.marked;
}

void UfoCore::rake_index_remove(uint32_t p, uint32_t r) {
  sizes_[p].rake_nverts -= sizes_[r].contrib_nverts;
  if (agg_ == Aggregates::kSize) return;
  assert(cold_[p].rake != kNullSlab);
  RakeIndex& ri = rake_of(p);
  const RakeContrib& k = cold_[r].contrib;
  ri.depths.erase_one(k.depth);
  if (k.mark < kInf) ri.marks.erase_one(k.mark);
  ri.diams.erase_one(k.diam);
  ri.sub_total -= k.sub;
  ri.sumdist_total -= k.sumdist;
  ri.marked_total -= k.marked;
}

// Most refreshes leave the cached contribution as it was, so compare
// before editing the bags.
void UfoCore::rake_index_refresh(uint32_t p, uint32_t r) {
  if (sizes_[r].contrib_nverts == sizes_[r].n_verts &&
      (agg_ == Aggregates::kSize || cold_[r].contrib == rake_contrib(r)))
    return;
  rake_index_remove(p, r);
  rake_index_add(p, r);
}

void UfoCore::rake_index_build(uint32_t p) {
  sizes_[p].rake_nverts = 0;
  if (agg_ == Aggregates::kAll) {
    rake_ensure(p);
    rake_of(p).clear();
  }
  uint32_t center = hot_[p].center_child;
  for (uint32_t c : children(p))
    if (c != center) rake_index_add(p, c);
  sizes_[p].rake_index_valid = true;
}

// O(log distinct keys) aggregate refresh for a superunary cluster whose rake
// index is current: rake contributions come from the index, the center's
// from its live fields.
void UfoCore::recompute_from_rake_index(uint32_t p) {
  const Hot& ph = hot_[p];
  sizes_[p].n_verts = sizes_[ph.center_child].n_verts + sizes_[p].rake_nverts;
  if (agg_ == Aggregates::kSize) return;
  Cold& pc = cold_[p];
  RakeIndex& ri = rake_of(p);
  const Cold& x = cold_[ph.center_child];
  Vertex b = x.bv[0];
  int sx = boundary_slot(x, b);
  if (sx < 0) sx = 0;  // degraded center mid-update; repaired by the walks
  pc.bv[0] = ph.nbrs.size == 0 ? kNoVertex : b;
  pc.bv[1] = kNoVertex;
  pc.sub_sum = x.sub_sum + ri.sub_total;
  pc.marked_count = x.marked_count + ri.marked_total;
  int64_t top[2];
  int ntop = ri.depths.empty() ? 0 : ri.depths.top2(top);
  int64_t rake_max = ntop >= 1 ? top[0] : -1;
  int64_t maxd = std::max<int64_t>(x.max_dist[sx], rake_max);
  pc.max_dist[0] = maxd;
  pc.max_dist[1] = 0;
  pc.sum_dist[0] = x.sum_dist[sx] + ri.sumdist_total;
  pc.sum_dist[1] = 0;
  int64_t markd = x.marked_dist[sx];
  if (!ri.marks.empty()) markd = std::min(markd, ri.marks.min());
  pc.marked_dist[0] = markd;
  pc.marked_dist[1] = kInf;
  // Diameter: child diameters plus the two deepest branches through b.
  int64_t dm = x.diam;
  if (!ri.diams.empty()) dm = std::max(dm, ri.diams.max());
  // Two deepest branches through b: the center's content is one branch
  // (depth >= 0), the two deepest rakes are the other candidates.
  int64_t c0 = x.max_dist[sx];
  if (ntop >= 1) {
    dm = std::max(dm, c0 + top[0]);
    if (ntop >= 2) dm = std::max(dm, top[0] + top[1]);
  }
  pc.diam = dm;
  pc.path_sum = 0;
  pc.path_max = kNegInf;
  pc.path_len = 0;
  if (pc.bv[0] == kNoVertex) {
    pc.max_dist[0] = 0;
    pc.sum_dist[0] = 0;
    pc.marked_dist[0] = kInf;
  }
}

void UfoCore::recompute_aggregates(uint32_t p) {
  UFO_STAT("core.recompute", 1);
  const Hot& ph = hot_[p];
  if (ph.children.size == 0) {  // leaf cluster
    refresh_leaf(p);
    return;
  }
  if (ph.center_child != 0) {  // superunary (high-degree) merge
    if (!sizes_[p].rake_index_valid) rake_index_build(p);
    recompute_from_rake_index(p);
    return;
  }
  Span<const uint32_t> kids = children(p);
  sizes_[p].n_verts = sizes_[kids[0]].n_verts +
                      (ph.children.size == 2 ? sizes_[kids[1]].n_verts : 0);
  if (agg_ == Aggregates::kSize) return;
  Cold& pc = cold_[p];
  pc.bv[0] = pc.bv[1] = kNoVertex;
  for (const Adj& a : nbrs(p)) {
    if (pc.bv[0] == kNoVertex || pc.bv[0] == a.my_end) {
      pc.bv[0] = a.my_end;
    } else if (pc.bv[1] == kNoVertex || pc.bv[1] == a.my_end) {
      pc.bv[1] = a.my_end;
    } else {
      assert(false && "cluster has >2 distinct boundary vertices");
    }
  }
  if (ph.children.size == 1) {
    const Cold& c = cold_[kids[0]];
    pc.sub_sum = c.sub_sum;
    pc.marked_count = c.marked_count;
    pc.path_sum = c.path_sum;
    pc.path_max = c.path_max;
    pc.path_len = c.path_len;
    pc.diam = c.diam;
    for (int i = 0; i < 2; ++i) {
      if (pc.bv[i] == kNoVertex) {
        pc.max_dist[i] = 0;
        pc.sum_dist[i] = 0;
        pc.marked_dist[i] = kInf;
        continue;
      }
      int j = boundary_slot(c, pc.bv[i]);
      assert(j >= 0);
      pc.max_dist[i] = c.max_dist[j];
      pc.sum_dist[i] = c.sum_dist[j];
      pc.marked_dist[i] = c.marked_dist[j];
    }
    return;
  }
  // Pair merge (fanout 2, merge edge recorded).
  assert(ph.children.size == 2);
  const Cold& a = cold_[kids[0]];
  const Cold& b = cold_[kids[1]];
  pc.sub_sum = a.sub_sum + b.sub_sum;
  pc.marked_count = a.marked_count + b.marked_count;
  int sa = boundary_slot(a, ph.merge_u);
  int sb = boundary_slot(b, ph.merge_v);
  assert(sa >= 0 && sb >= 0 && "pair merge edge left a child's boundary");
  pc.diam = std::max({a.diam, b.diam, a.max_dist[sa] + 1 + b.max_dist[sb]});
  for (int i = 0; i < 2; ++i) {
    Vertex q = pc.bv[i];
    if (q == kNoVertex) {
      pc.max_dist[i] = 0;
      pc.sum_dist[i] = 0;
      pc.marked_dist[i] = kInf;
      continue;
    }
    int qa = boundary_slot(a, q);
    const Cold& x = qa >= 0 ? a : b;
    const Cold& y = qa >= 0 ? b : a;
    Vertex xe = qa >= 0 ? ph.merge_u : ph.merge_v;
    Vertex ye = qa >= 0 ? ph.merge_v : ph.merge_u;
    int sq = qa >= 0 ? qa : boundary_slot(b, q);
    assert(sq >= 0);
    int sye = boundary_slot(y, ye);
    int64_t dq = (q == xe) ? 0 : x.path_len;
    pc.max_dist[i] = std::max(x.max_dist[sq], dq + 1 + y.max_dist[sye]);
    pc.sum_dist[i] = x.sum_dist[sq] + (dq + 1) * y.sub_sum + y.sum_dist[sye];
    pc.marked_dist[i] =
        std::min(x.marked_dist[sq],
                 y.marked_dist[sye] >= kInf ? kInf : dq + 1 + y.marked_dist[sye]);
  }
  pc.path_sum = 0;
  pc.path_max = kNegInf;
  pc.path_len = 0;
  if (pc.bv[0] != kNoVertex && pc.bv[1] != kNoVertex) {
    int b0a = boundary_slot(a, pc.bv[0]);
    int b1a = boundary_slot(a, pc.bv[1]);
    if (b0a >= 0 && b1a >= 0) {
      pc.path_sum = a.path_sum;
      pc.path_max = a.path_max;
      pc.path_len = a.path_len;
    } else if (b0a < 0 && b1a < 0) {
      pc.path_sum = b.path_sum;
      pc.path_max = b.path_max;
      pc.path_len = b.path_len;
    } else {
      Vertex qa2 = b0a >= 0 ? pc.bv[0] : pc.bv[1];
      Vertex qb2 = b0a >= 0 ? pc.bv[1] : pc.bv[0];
      Weight sum = ph.merge_w;
      Weight mx = ph.merge_w;
      int64_t len = 1;
      if (qa2 != ph.merge_u) {
        sum += a.path_sum;
        mx = std::max(mx, a.path_max);
        len += a.path_len;
      }
      if (qb2 != ph.merge_v) {
        sum += b.path_sum;
        mx = std::max(mx, b.path_max);
        len += b.path_len;
      }
      pc.path_sum = sum;
      pc.path_max = mx;
      pc.path_len = len;
    }
  }
}

bool UfoCore::recompute_matches(uint32_t id, bool report) {
  SizeRec ssaved = sizes_[id];
  Cold saved = agg_ == Aggregates::kAll ? cold_[id] : Cold{};
  sizes_[id].rake_index_valid = false;  // verify incremental == full
  recompute_aggregates(id);
  const SizeRec& s = sizes_[id];
  bool ok = ssaved.n_verts == s.n_verts &&
            (!ssaved.rake_index_valid || ssaved.rake_nverts == s.rake_nverts);
  if (agg_ == Aggregates::kAll) {
    const Cold& c = cold_[id];
    ok = ok && saved.sub_sum == c.sub_sum && saved.path_sum == c.path_sum &&
         saved.path_max == c.path_max && saved.path_len == c.path_len &&
         saved.diam == c.diam && saved.bv[0] == c.bv[0] &&
         saved.bv[1] == c.bv[1] && saved.max_dist[0] == c.max_dist[0] &&
         saved.max_dist[1] == c.max_dist[1] &&
         saved.sum_dist[0] == c.sum_dist[0] &&
         saved.sum_dist[1] == c.sum_dist[1] &&
         saved.marked_dist[0] == c.marked_dist[0] &&
         saved.marked_dist[1] == c.marked_dist[1] &&
         saved.marked_count == c.marked_count;
  }
  if (!ok && report) {
    std::fprintf(stderr,
                 "aggregate drift at cluster %u (level %d fanout %zu center "
                 "%u): nv %u->%u rake nv %u->%u\n",
                 id, hot_[id].level, fanout(id), hot_[id].center_child,
                 ssaved.n_verts, s.n_verts, ssaved.rake_nverts, s.rake_nverts);
    if (agg_ == Aggregates::kAll) {
      const Cold& c = cold_[id];
      std::fprintf(stderr,
                   "  psum %lld->%lld pmax %lld->%lld plen %lld->%lld "
                   "diam %lld->%lld bv (%u,%u)->(%u,%u) "
                   "maxd (%lld,%lld)->(%lld,%lld) sumd %lld->%lld "
                   "markd %lld->%lld\n",
                   (long long)saved.path_sum, (long long)c.path_sum,
                   (long long)saved.path_max, (long long)c.path_max,
                   (long long)saved.path_len, (long long)c.path_len,
                   (long long)saved.diam, (long long)c.diam, saved.bv[0],
                   saved.bv[1], c.bv[0], c.bv[1], (long long)saved.max_dist[0],
                   (long long)saved.max_dist[1], (long long)c.max_dist[0],
                   (long long)c.max_dist[1], (long long)saved.sum_dist[0],
                   (long long)c.sum_dist[0], (long long)saved.marked_dist[0],
                   (long long)c.marked_dist[0]);
    }
  }
  return ok;
}

bool UfoCore::check_aggregates() {
  std::vector<uint32_t> ids;
  for (uint32_t id = 1; id < pool_size(); ++id)
    if (hot_[id].level > 0) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return hot_[a].level < hot_[b].level;
  });
  bool ok = true;
  for (uint32_t id : ids) ok = recompute_matches(id, true) && ok;
  return ok;
}

size_t UfoCore::height(Vertex v) const {
  size_t h = 0;
  for (uint32_t c = leaf_id(v); hot_[c].parent != 0; c = hot_[c].parent) ++h;
  return h;
}

UfoCore::MemoryBreakdown UfoCore::memory_breakdown() const {
  MemoryBreakdown b;
  b.hot = hot_.capacity() * sizeof(Hot);
  b.cold =
      sizes_.capacity() * sizeof(SizeRec) + cold_.capacity() * sizeof(Cold);
  b.adjacency = adj_pool_.memory_bytes();
  b.children = child_pool_.memory_bytes();
  b.adj_index = idx_pool_.memory_bytes();
  b.rake = rake_pool_.memory_bytes();
  // Bag heap bytes, including nodes still held by freed-but-pooled indexes
  // (a recycled index is cleared when it is reused).
  rake_pool_.for_each_allocated(
      [&](const RakeIndex& ri) { b.rake += ri.memory_bytes(); });
  b.other = sizeof(*this) + free_.capacity() * sizeof(uint32_t) +
            vweight_.capacity() * sizeof(Weight) + marked_.capacity();
  b.clusters = live_clusters_;
  return b;
}

InvariantReport UfoCore::validate() const {
  InvariantReport rep;
  // Failure codes are stable across releases (the recovery subsystem keys
  // degrade decisions off them):
  //   #1 child's parent link wrong        #7 center_child not a child
  //   #2 child not one level below        #8 pair-merge children not adjacent
  //   #3 adjacency not symmetric          #9 fanout >= 3 without a center
  //   #4 neighbor at a different level   #10 mergeable root pair (maximality)
  //   #5 rake with degree != 1           #11 unraked degree-1 neighbor
  //   #6 rake edge misses the center     #12 adjacency hash index mismatch
  //   #13 superunary kAll cluster whose rake index is invalid (queries
  //       read the index between updates)
  for (uint32_t id = 1; id < pool_size(); ++id) {
    const Hot& c = hot_[id];
    if (c.level == kFreedLevel) continue;
    for (uint32_t ch : children(id)) {
      if (hot_[ch].parent != id && !rep.add(1, id, {})) return rep;
      if (hot_[ch].level != c.level - 1 && !rep.add(2, id, {})) return rep;
    }
    for (const Adj& a : nbrs(id)) {
      if (!adj_contains(a.nbr, id) && !rep.add(3, id, {})) return rep;
      if (hot_[a.nbr].level != c.level && !rep.add(4, id, {})) return rep;
    }
    if (c.adj_index != kNullSlab) {
      // The hash index, when present, must agree with the slab entry by
      // entry (position and key).
      for (uint32_t i = 0; i < c.nbrs.size; ++i) {
        if (adj_index_find(id, nbrs(id)[i].nbr) != i && !rep.add(12, id, {}))
          return rep;
      }
    }
    if (c.center_child != 0) {
      // High-degree merge: every non-center child is a rake with a single
      // edge to the center.
      bool center_found = false;
      for (uint32_t ch : children(id)) {
        if (ch == c.center_child) {
          center_found = true;
          continue;
        }
        if (hot_[ch].nbrs.size != 1 && !rep.add(5, id, {})) return rep;
        if (hot_[ch].nbrs.size >= 1 && nbrs(ch)[0].nbr != c.center_child &&
            !rep.add(6, id, {}))
          return rep;
      }
      if (!center_found && !rep.add(7, id, {})) return rep;
      if (agg_ == Aggregates::kAll && !sizes_[id].rake_index_valid &&
          !rep.add(13, id, {}))
        return rep;
    } else if (c.children.size == 2) {
      // Pair merge: children adjacent, degree sum <= 4 at merge time.
      if (!adj_contains(children(id)[0], children(id)[1]) &&
          !rep.add(8, id, {}))
        return rep;
    } else if (c.children.size > 2) {
      if (!rep.add(9, id, {})) return rep;  // fanout >= 3 requires a center
    }
    // Maximality for root clusters.
    if (c.parent == 0 && c.nbrs.size != 0) {
      size_t d = c.nbrs.size;
      for (const Adj& a : nbrs(id)) {
        const Hot& y = hot_[a.nbr];
        size_t dy = y.nbrs.size;
        bool allowed = (d + dy <= 4 && d <= 2 && dy <= 2) ||
                       (d >= 3 && dy == 1) || (dy >= 3 && d == 1);
        if (allowed && y.parent == 0 && !rep.add(10, id, {})) return rep;
      }
    }
    // High-degree clusters merge with all their degree-1 neighbors.
    if (c.nbrs.size >= 3 && c.parent != 0) {
      for (const Adj& a : nbrs(id)) {
        if (hot_[a.nbr].nbrs.size == 1 && hot_[a.nbr].parent != c.parent &&
            !rep.add(11, id, {}))
          return rep;
      }
    }
  }
  return rep;
}

bool UfoCore::check_valid() const {
  InvariantReport rep = validate();
  if (!rep.ok()) rep.print(stderr);
  return rep.ok();
}

// ---------------------------------------------------------------------------
// Queries (App. C.2): the topology-tree traversals extended with the
// superunary cases — clusters formed by high-degree merges have a single
// boundary vertex (the center), rakes attach at it, and cluster paths
// through superunary clusters are empty.
// ---------------------------------------------------------------------------

// A query whose input breaks its precondition: name it and abort.
[[noreturn]] static void bad_query(const char* query, Vertex a, Vertex b,
                                   const char* what) {
  std::fprintf(stderr, "ufo: %s(%u, %u): %s\n", query, a, b, what);
  std::abort();
}

void UfoCore::require_all(const char* query) const {
  if (agg_ == Aggregates::kAll) return;
  std::fprintf(stderr,
               "ufo: %s needs a forest built with Aggregates::kAll; this one "
               "keeps component sizes only\n",
               query);
  std::abort();
}

bool UfoCore::connected(Vertex u, Vertex v) const {
  if (u == v) return true;
  return tree_root(u) == tree_root(v);
}

void UfoCore::lca_clusters(const VertexPair* q, size_t n,
                           uint32_t* out) const {
  assert(n <= kRootGroup && hot_[0].parent == 0);
  const Hot* hot = hot_.data();
  // Chain a[i] climbs from q[i]'s first leaf, out[i] from its second, in
  // place. Leaves are level 0 and every parent is one level up, so the two
  // chains of a pair stay level-aligned and first meet at their LCA. A
  // chain that climbs past its root reads slot 0, whose parent is 0, so
  // the chains of two trees meet there. A met pair stays put (its loads
  // hit the cached LCA record); the group ends after a sweep with no open
  // pair.
  uint32_t a[kRootGroup];
  for (size_t i = 0; i < n; ++i) {
    a[i] = leaf_id(q[i].first);
    out[i] = leaf_id(q[i].second);
  }
  for (bool open = true; open;) {
    open = false;
    for (size_t i = 0; i < n; ++i) {
      const bool climb = a[i] != out[i];
      const uint32_t pa = hot[a[i]].parent, pb = hot[out[i]].parent;
      open |= climb;
      a[i] = climb ? pa : a[i];
      out[i] = climb ? pb : out[i];
    }
  }
}

template <class Visit>
UfoCore::RepPath UfoCore::climb_rep_path(Vertex from, uint32_t stop,
                                         uint32_t* child,
                                         Visit&& visit) const {
  uint32_t c = leaf_id(from);
  RepPath rp;
  while (hot_[c].parent != stop) {
    uint32_t p = hot_[c].parent;
    assert(p != 0 && "stop must be an ancestor");
    visit(c, p, rp);
    const Hot& ph = hot_[p];
    const Cold& pd = cold_[p];
    const Cold& cd = cold_[c];
    RepPath np;
    if (ph.center_child != 0 && c != ph.center_child) {
      // Climbing out of a rake: exit via its single edge, which attaches at
      // the parent's (single) boundary vertex.
      const Adj& e = nbrs(c)[0];
      int j = boundary_slot(cd, e.my_end);
      assert(j >= 0);
      for (int i = 0; i < 2; ++i) {
        if (pd.bv[i] == kNoVertex) continue;
        assert(pd.bv[i] == e.other_end);
        np.sum[i] = rp.sum[j] + e.w;
        np.max[i] = std::max(rp.max[j], e.w);
        np.len[i] = rp.len[j] + 1;
      }
    } else if (ph.children.size == 1 || ph.center_child == c) {
      // Fanout-1 extension, or climbing through the center: the parent's
      // boundary vertices all lie inside c.
      for (int i = 0; i < 2; ++i) {
        if (pd.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cd, pd.bv[i]);
        assert(j >= 0);
        np.sum[i] = rp.sum[j];
        np.max[i] = rp.max[j];
        np.len[i] = rp.len[j];
      }
    } else {
      // Pair merge.
      Span<const uint32_t> kids = children(p);
      bool first = (kids[0] == c);
      uint32_t sib = first ? kids[1] : kids[0];
      Vertex xe = first ? ph.merge_u : ph.merge_v;
      Vertex se = first ? ph.merge_v : ph.merge_u;
      const Cold& sd = cold_[sib];
      for (int i = 0; i < 2; ++i) {
        Vertex q = pd.bv[i];
        if (q == kNoVertex) continue;
        int j = boundary_slot(cd, q);
        if (j >= 0) {
          np.sum[i] = rp.sum[j];
          np.max[i] = rp.max[j];
          np.len[i] = rp.len[j];
        } else {
          int jx = boundary_slot(cd, xe);
          assert(jx >= 0 && boundary_slot(sd, q) >= 0);
          np.sum[i] = rp.sum[jx] + ph.merge_w;
          np.max[i] = std::max(rp.max[jx], ph.merge_w);
          np.len[i] = rp.len[jx] + 1;
          if (q != se) {
            np.sum[i] += sd.path_sum;
            np.max[i] = std::max(np.max[i], sd.path_max);
            np.len[i] += sd.path_len;
          }
        }
      }
    }
    rp = np;
    c = p;
  }
  *child = c;
  return rp;
}

UfoCore::PathAgg UfoCore::side_to_center(uint32_t lca, uint32_t child,
                                         const RepPath& rp) const {
  // The center vertex is the center child's bv[0]; a rake reaches it
  // across its single edge.
  if (child == hot_[lca].center_child) return {rp.sum[0], rp.max[0], rp.len[0]};
  const Adj& e = nbrs(child)[0];
  int j = boundary_slot(cold_[child], e.my_end);
  assert(j >= 0);
  return {rp.sum[j] + e.w, std::max(rp.max[j], e.w), rp.len[j] + 1};
}

UfoCore::PathAgg UfoCore::path_agg(Vertex u, Vertex v, uint32_t lca,
                                   const char* query) const {
  if (lca == 0) bad_query(query, u, v, "vertices in different trees");
  auto no_visit = [](uint32_t, uint32_t, const RepPath&) {};
  uint32_t cu = 0, cv = 0;
  RepPath ru = climb_rep_path(u, lca, &cu, no_visit);
  RepPath rv = climb_rep_path(v, lca, &cv, no_visit);
  const Hot& L = hot_[lca];
  if (L.center_child != 0) {
    PathAgg a = side_to_center(lca, cu, ru);
    PathAgg b = side_to_center(lca, cv, rv);
    return {a.sum + b.sum, std::max(a.max, b.max), a.len + b.len};
  }
  // Pair merge: the path crosses the merge edge.
  assert(L.children.size == 2);
  Span<const uint32_t> kids = children(lca);
  int su = boundary_slot(cold_[cu], kids[0] == cu ? L.merge_u : L.merge_v);
  int sv = boundary_slot(cold_[cv], kids[0] == cv ? L.merge_u : L.merge_v);
  assert(su >= 0 && sv >= 0);
  return {ru.sum[su] + L.merge_w + rv.sum[sv],
          std::max({ru.max[su], L.merge_w, rv.max[sv]}),
          ru.len[su] + 1 + rv.len[sv]};
}

void UfoCore::path_queries(const VertexPair* q, size_t n, PathQuery kind,
                           int64_t* out) const {
  static constexpr const char* kName[] = {"path_sum", "path_max",
                                          "path_length"};
  const char* query = kName[static_cast<int>(kind)];
  require_all(query);
  for (size_t base = 0; base < n; base += kRootGroup) {
    const size_t g = std::min(kRootGroup, n - base);
    uint32_t lca[kRootGroup];
    lca_clusters(q + base, g, lca);
    for (size_t i = 0; i < g; ++i) {
      const auto [u, v] = q[base + i];
      PathAgg f{0, std::numeric_limits<Weight>::min(), 0};  // u == v
      if (u != v) f = path_agg(u, v, lca[i], query);
      out[base + i] = kind == PathQuery::kSum   ? f.sum
                      : kind == PathQuery::kMax ? f.max
                                                : f.len;
    }
  }
}

Weight UfoCore::path_sum(Vertex u, Vertex v) const {
  return path_query(u, v, PathQuery::kSum);
}

Weight UfoCore::path_max(Vertex u, Vertex v) const {
  return path_query(u, v, PathQuery::kMax);
}

int64_t UfoCore::path_length(Vertex u, Vertex v) const {
  return path_query(u, v, PathQuery::kLength);
}

// Subtree aggregates of v with parent p: climb from the LCA child on v's
// side, tracking which boundary vertices of the current cluster lie inside
// subtree(v, p); siblings attaching at an inside boundary contribute their
// whole contents. At the first step the (v, p) edge itself joins the two
// sides, so p's side is never taken.
UfoCore::SubtreeAgg UfoCore::subtree_agg(Vertex v, Vertex p,
                                         const char* query) const {
  require_all(query);
  if (!has_edge(v, p)) bad_query(query, v, p, "not a forest edge");
  const VertexPair q{v, p};
  uint32_t lca = 0;
  lca_clusters(&q, 1, &lca);
  uint32_t cv = leaf_id(v), cp = leaf_id(p);
  while (hot_[cv].parent != lca) cv = hot_[cv].parent;
  while (hot_[cp].parent != lca) cp = hot_[cp].parent;
  SubtreeAgg acc;
  auto take = [&](uint32_t s) {
    acc.sum += cold_[s].sub_sum;
    acc.size += sizes_[s].n_verts;
  };
  take(cv);
  bool in[2] = {false, false};
  for (int i = 0; i < 2; ++i)
    if (cold_[cv].bv[i] != kNoVertex) in[i] = true;
  uint32_t x = cv;
  bool first = true;
  while (hot_[x].parent != 0) {
    uint32_t pid = hot_[x].parent;
    const Hot& ph = hot_[pid];
    const Cold& pd = cold_[pid];
    const Cold& xd = cold_[x];
    bool nin[2] = {false, false};
    if (ph.center_child != 0) {
      bool inside;
      if (x == ph.center_child) {
        // The rakes attach at the center vertex, x's bv[0].
        inside = in[0];
      } else {
        // x is a rake; crossing its edge reaches the rest of the tree.
        int j = boundary_slot(xd, nbrs(x)[0].my_end);
        inside = j >= 0 && in[j] && !first;
      }
      if (inside) {
        // Every other child is inside (but p's side at the first step, which
        // only the center branch can reach): take pid's totals minus x's,
        // O(1) however many rakes pid has.
        acc.sum += pd.sub_sum - xd.sub_sum;
        acc.size += sizes_[pid].n_verts - sizes_[x].n_verts;
        if (first) {
          acc.sum -= cold_[cp].sub_sum;
          acc.size -= sizes_[cp].n_verts;
        }
      }
      for (int i = 0; i < 2; ++i)
        if (pd.bv[i] != kNoVertex) nin[i] = inside;
    } else if (ph.children.size == 1) {
      for (int i = 0; i < 2; ++i) {
        if (pd.bv[i] == kNoVertex) continue;
        int j = boundary_slot(xd, pd.bv[i]);
        nin[i] = j >= 0 && in[j];
      }
    } else {
      Span<const uint32_t> kids = children(pid);
      bool xfirst = (kids[0] == x);
      uint32_t sib = xfirst ? kids[1] : kids[0];
      int jx = boundary_slot(xd, xfirst ? ph.merge_u : ph.merge_v);
      bool sib_inside = jx >= 0 && in[jx] && !first;
      if (sib_inside) take(sib);
      for (int i = 0; i < 2; ++i) {
        Vertex q = pd.bv[i];
        if (q == kNoVertex) continue;
        int j = boundary_slot(xd, q);
        nin[i] = j >= 0 ? in[j] : sib_inside;
      }
    }
    in[0] = nin[0];
    in[1] = nin[1];
    x = pid;
    first = false;
  }
  return acc;
}

Weight UfoCore::subtree_sum(Vertex v, Vertex p) const {
  return subtree_agg(v, p, "subtree_sum").sum;
}

size_t UfoCore::subtree_size(Vertex v, Vertex p) const {
  return subtree_agg(v, p, "subtree_size").size;
}

void UfoCore::path_milestone(Vertex u, Vertex v, Vertex* a, Vertex* b) const {
  require_all("path_milestone");
  if (u == v) bad_query("path_milestone", u, v, "empty path");
  const VertexPair q{u, v};
  uint32_t lca = 0;
  lca_clusters(&q, 1, &lca);
  if (lca == 0)
    bad_query("path_milestone", u, v, "vertices in different trees");
  const Hot& L = hot_[lca];
  uint32_t cu = leaf_id(u);
  while (hot_[cu].parent != lca) cu = hot_[cu].parent;
  if (L.center_child != 0) {
    Vertex center = cold_[L.center_child].bv[0];
    if (cu == L.center_child) {
      // u-side reaches the center vertex first, then exits into v's rake.
      uint32_t cv = leaf_id(v);
      while (hot_[cv].parent != lca) cv = hot_[cv].parent;
      *a = center;
      *b = nbrs(cv)[0].my_end;
    } else {
      *a = nbrs(cu)[0].my_end;
      *b = center;
    }
    return;
  }
  assert(L.children.size == 2);
  if (children(lca)[0] == cu) {
    *a = L.merge_u;
    *b = L.merge_v;
  } else {
    *a = L.merge_v;
    *b = L.merge_u;
  }
}

Vertex UfoCore::lca(Vertex u, Vertex v, Vertex r) const {
  require_all("lca");
  if (u == v) return u;
  if (u == r || v == r) return r;
  const VertexPair q[3] = {{u, v}, {u, r}, {v, r}};
  int64_t d[3] = {};
  path_queries(q, 3, PathQuery::kLength, d);
  int64_t k = (d[0] + d[1] - d[2]) / 2;
  return path_select(*this, u, v, k);
}

int64_t UfoCore::component_diameter(Vertex v) const {
  require_all("component_diameter");
  return cold_[tree_root(v)].diam;
}

// One representative-path climb to the root: at each step the visitor
// scores the clusters hanging off the climbed path by their nearest mark.
int64_t UfoCore::nearest_marked_distance(Vertex v) const {
  require_all("nearest_marked_distance");
  int64_t best = marked_[v] ? 0 : kInf;
  // d = hop distance from v to the vertex `at` inside s.
  auto score = [&](int64_t d, uint32_t s, Vertex at) {
    const Cold& sd = cold_[s];
    int j = boundary_slot(sd, at);
    if (j >= 0 && sd.marked_dist[j] < kInf)
      best = std::min(best, d + sd.marked_dist[j]);
  };
  auto visit = [&](uint32_t c, uint32_t p, const RepPath& rp) {
    const Hot& ph = hot_[p];
    if (ph.center_child != 0) {
      // Every rake hangs one edge off the center vertex (the center
      // child's bv[0]); a rake's own edge leads from it to that vertex.
      int64_t at_b = rp.len[0];
      if (c != ph.center_child) {
        int j = boundary_slot(cold_[c], nbrs(c)[0].my_end);
        assert(j >= 0);
        at_b = rp.len[j] + 1;
        score(at_b, ph.center_child, cold_[ph.center_child].bv[0]);
      }
      // The other rakes in O(1): a rake's marks key is its nearest mark's
      // distance from the center vertex, so the smallest key scores them
      // all. If that key is c's own, it scores a walk out of c and back,
      // never shorter than the mark inside c the climb already scored. The
      // index is valid between updates (validate() code #13).
      assert(sizes_[p].rake_index_valid);
      const SortedBag& marks = rake_pool_.at(cold_[p].rake).marks;
      if (!marks.empty()) best = std::min(best, at_b + marks.min());
    } else if (ph.children.size == 2) {
      Span<const uint32_t> kids = children(p);
      bool first = (kids[0] == c);
      int jx = boundary_slot(cold_[c], first ? ph.merge_u : ph.merge_v);
      assert(jx >= 0);
      score(rp.len[jx] + 1, first ? kids[1] : kids[0],
            first ? ph.merge_v : ph.merge_u);
    }
  };
  uint32_t root = 0;
  climb_rep_path(v, 0, &root, visit);
  return best >= kInf ? -1 : best;
}

Vertex UfoCore::component_center(Vertex v) const {
  require_all("component_center");
  uint32_t c = tree_root(v);
  int64_t ext[2] = {INT64_MIN / 4, INT64_MIN / 4};
  while (hot_[c].children.size != 0) {
    const Hot& ph = hot_[c];
    const Cold& pd = cold_[c];
    Span<const uint32_t> kids = children(c);
    if (ph.center_child != 0) {
      const Cold& xd = cold_[ph.center_child];
      Vertex b = xd.bv[0];
      int sxb = boundary_slot(xd, b);
      assert(sxb >= 0);
      int64_t extb = INT64_MIN / 4;
      for (int i = 0; i < 2; ++i)
        if (pd.bv[i] == b) extb = std::max(extb, ext[i]);
      // Branch depths from b.
      int64_t far_x = xd.max_dist[sxb];
      uint32_t best_rake = 0;
      int64_t best_far = INT64_MIN / 4, second_far = INT64_MIN / 4;
      for (uint32_t s : kids) {
        if (s == ph.center_child) continue;
        const Cold& sd = cold_[s];
        int js = boundary_slot(sd, nbrs(s)[0].my_end);
        int64_t far = 1 + sd.max_dist[js];
        if (far > best_far) {
          second_far = best_far;
          best_far = far;
          best_rake = s;
        } else if (far > second_far) {
          second_far = far;
        }
      }
      int64_t others_vs_rake =
          std::max({far_x, extb, second_far});  // deepest non-best branch
      // best_far == others_vs_rake + 1 makes b and the deepest rake's end
      // both centers; the smaller id wins.
      if (best_rake != 0 &&
          (best_far > others_vs_rake + 1 ||
           (best_far == others_vs_rake + 1 &&
            nbrs(best_rake)[0].my_end < b))) {
        // Center inside the deepest rake.
        const Cold& sd = cold_[best_rake];
        int js = boundary_slot(sd, nbrs(best_rake)[0].my_end);
        int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
        if (js >= 0)
          next[js] = 1 + std::max({far_x, extb, second_far});
        ext[0] = next[0];
        ext[1] = next[1];
        c = best_rake;
      } else {
        int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
        int jb = boundary_slot(xd, b);
        int64_t from_rakes = best_far >= 0 ? best_far : INT64_MIN / 4;
        next[jb] = std::max(extb, from_rakes);
        ext[0] = next[0];
        ext[1] = next[1];
        c = ph.center_child;
      }
      continue;
    }
    if (ph.children.size == 1) {
      uint32_t ch = kids[0];
      const Cold& cd = cold_[ch];
      int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
      for (int i = 0; i < 2; ++i) {
        if (pd.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cd, pd.bv[i]);
        if (j >= 0) next[j] = std::max(next[j], ext[i]);
      }
      ext[0] = next[0];
      ext[1] = next[1];
      c = ch;
      continue;
    }
    uint32_t A = kids[0], B = kids[1];
    const Cold& ad = cold_[A];
    const Cold& bd = cold_[B];
    int sa = boundary_slot(ad, ph.merge_u);
    int sb = boundary_slot(bd, ph.merge_v);
    auto side_far = [&](const Cold& side, int sm, Vertex me) -> int64_t {
      int64_t far = side.max_dist[sm];
      for (int i = 0; i < 2; ++i) {
        Vertex q = pd.bv[i];
        if (q == kNoVertex || ext[i] <= INT64_MIN / 8) continue;
        int j = boundary_slot(side, q);
        if (j < 0) continue;
        int64_t d = (q == me) ? 0 : side.path_len;
        far = std::max(far, d + ext[i]);
      }
      return far;
    };
    int64_t fa = side_far(ad, sa, ph.merge_u);
    int64_t fb = side_far(bd, sb, ph.merge_v);
    // fa == fb makes both merge endpoints centers; the smaller id wins.
    bool go_a = fa > fb || (fa == fb && ph.merge_u < ph.merge_v);
    const Cold& go = go_a ? ad : bd;
    uint32_t goid = go_a ? A : B;
    Vertex ge = go_a ? ph.merge_u : ph.merge_v;
    int64_t other_far = go_a ? fb : fa;
    int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
    for (int i = 0; i < 2; ++i) {
      if (go.bv[i] == kNoVertex) continue;
      if (go.bv[i] == ge) next[i] = std::max(next[i], other_far + 1);
      for (int k = 0; k < 2; ++k) {
        if (pd.bv[k] == go.bv[i] && ext[k] > INT64_MIN / 8)
          next[i] = std::max(next[i], ext[k]);
      }
    }
    ext[0] = next[0];
    ext[1] = next[1];
    c = goid;
  }
  return hot_[c].leaf_vertex;
}

Vertex UfoCore::component_median(Vertex v) const {
  require_all("component_median");
  uint32_t c = tree_root(v);
  int64_t extw[2] = {0, 0};
  while (hot_[c].children.size != 0) {
    const Hot& ph = hot_[c];
    const Cold& pd = cold_[c];
    Span<const uint32_t> kids = children(c);
    if (ph.center_child != 0) {
      const Cold& xd = cold_[ph.center_child];
      Vertex b = xd.bv[0];
      int64_t extb = 0;
      for (int i = 0; i < 2; ++i)
        if (pd.bv[i] == b) extb += extw[i];
      int64_t total = pd.sub_sum + extb;
      // If some rake holds more than half the weight, the median is inside
      // it; otherwise it is at b or inside the center child.
      uint32_t heavy = 0;
      for (uint32_t s : kids) {
        if (s == ph.center_child) continue;
        if (2 * cold_[s].sub_sum > total) {
          heavy = s;
          break;
        }
      }
      if (heavy != 0) {
        const Cold& sd = cold_[heavy];
        int js = boundary_slot(sd, nbrs(heavy)[0].my_end);
        int64_t next[2] = {0, 0};
        if (js >= 0) next[js] = total - sd.sub_sum;
        extw[0] = next[0];
        extw[1] = next[1];
        c = heavy;
      } else {
        int jb = boundary_slot(xd, b);
        int64_t outside_x = total - xd.sub_sum;
        int64_t next[2] = {0, 0};
        next[jb] = outside_x;
        extw[0] = next[0];
        extw[1] = next[1];
        c = ph.center_child;
      }
      continue;
    }
    if (ph.children.size == 1) {
      uint32_t ch = kids[0];
      const Cold& cd = cold_[ch];
      int64_t next[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        if (pd.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cd, pd.bv[i]);
        if (j >= 0) next[j] += extw[i];
      }
      extw[0] = next[0];
      extw[1] = next[1];
      c = ch;
      continue;
    }
    uint32_t A = kids[0], B = kids[1];
    const Cold& ad = cold_[A];
    const Cold& bd = cold_[B];
    auto side_weight = [&](const Cold& side) -> int64_t {
      int64_t w = side.sub_sum;
      for (int i = 0; i < 2; ++i) {
        Vertex q = pd.bv[i];
        if (q == kNoVertex) continue;
        if (boundary_slot(side, q) >= 0) w += extw[i];
      }
      return w;
    };
    int64_t wa = side_weight(ad);
    int64_t wb = side_weight(bd);
    const Cold& go = wa >= wb ? ad : bd;
    uint32_t goid = wa >= wb ? A : B;
    Vertex ge = wa >= wb ? ph.merge_u : ph.merge_v;
    int64_t other_w = wa >= wb ? wb : wa;
    int64_t next[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      if (go.bv[i] == kNoVertex) continue;
      if (go.bv[i] == ge) next[i] += other_w;
      for (int k = 0; k < 2; ++k) {
        if (pd.bv[k] == go.bv[i]) next[i] += extw[k];
      }
    }
    extw[0] = next[0];
    extw[1] = next[1];
    c = goid;
  }
  return hot_[c].leaf_vertex;
}

}  // namespace ufo::core
