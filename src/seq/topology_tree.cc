// Topology tree core: cluster pool, update algorithm (delete ancestors +
// bottom-up reclustering), aggregate maintenance, and invariant checking.
// Queries live in topology_queries.cc.
#include "seq/topology_tree.h"

#include <algorithm>
#include <cassert>

namespace ufo::seq {

namespace {
// Marker kept in `level` for clusters sitting on the free list.
constexpr int32_t kFreedLevel = -1;
}  // namespace

TopologyTree::TopologyTree(size_t n)
    : n_(n), vweight_(n, 1), marked_(n, 0) {
  clusters_.resize(n + 1);  // id 0 is the null sentinel
  for (Vertex v = 0; v < n; ++v) {
    Cluster& c = clusters_[leaf_id(v)];
    c.leaf_vertex = v;
    c.level = 0;
    refresh_leaf(leaf_id(v));
  }
  roots_.resize(1);
}

void TopologyTree::refresh_leaf(uint32_t leaf) {
  Cluster& c = clusters_[leaf];
  Vertex v = c.leaf_vertex;
  c.n_verts = 1;
  c.sub_sum = vweight_[v];
  c.path_sum = 0;
  c.path_max = kNegInf;
  c.path_len = 0;
  // Boundary slots hold *distinct* boundary vertices; a leaf has exactly one
  // (itself) whenever it has any incident edge.
  c.bv[0] = c.nbrs.empty() ? kNoVertex : v;
  c.bv[1] = kNoVertex;
  c.max_dist[0] = c.max_dist[1] = 0;
  c.sum_dist[0] = c.sum_dist[1] = 0;
  c.marked_count = marked_[v] ? 1 : 0;
  c.marked_dist[0] = c.marked_dist[1] = marked_[v] ? 0 : kInf;
  c.diam = 0;
}

namespace {

// Reset a cluster to its default state while recycling vector capacity;
// cluster alloc/free is on the per-update hot path.
template <class ClusterT>
void recycle(ClusterT& c) {
  auto nbrs = std::move(c.nbrs);
  auto children = std::move(c.children);
  nbrs.clear();
  children.clear();
  c = ClusterT{};
  c.nbrs = std::move(nbrs);
  c.children = std::move(children);
}

}  // namespace

uint32_t TopologyTree::alloc_cluster(int32_t level) {
  uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    recycle(clusters_[id]);
  } else {
    id = static_cast<uint32_t>(clusters_.size());
    clusters_.emplace_back();
  }
  clusters_[id].level = level;
  return id;
}

void TopologyTree::free_cluster(uint32_t c) {
  recycle(clusters_[c]);
  clusters_[c].level = kFreedLevel;
  free_.push_back(c);
}

bool TopologyTree::adj_contains(uint32_t c, uint32_t d) const {
  for (const Adj& a : clusters_[c].nbrs)
    if (a.nbr == d) return true;
  return false;
}

void TopologyTree::adj_remove(uint32_t c, uint32_t d) {
  auto& nbrs = clusters_[c].nbrs;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i].nbr == d) {
      nbrs[i] = nbrs.back();
      nbrs.pop_back();
      return;
    }
  }
}

uint32_t TopologyTree::tree_root(Vertex v) const {
  uint32_t c = leaf_id(v);
  while (clusters_[c].parent != 0) c = clusters_[c].parent;
  return c;
}

void TopologyTree::add_root(uint32_t c) {
  Cluster& cl = clusters_[c];
  size_t lvl = static_cast<size_t>(cl.level);
  if (roots_.size() <= lvl) roots_.resize(lvl + 1);
  roots_[lvl].push_back(c);
}

// Deletes every ancestor of c (topology trees delete unconditionally; the
// UFO guard for high degree/fanout lives in ufo_tree.cc). Children of each
// deleted cluster become root clusters at their levels; c itself is
// detached and becomes a root cluster.
void TopologyTree::delete_ancestors(uint32_t c) {
  uint32_t cur = clusters_[c].parent;
  clusters_[c].parent = 0;
  add_root(c);
  while (cur != 0) {
    uint32_t next = clusters_[cur].parent;
    // Drop cur from its neighbors' adjacency at cur's level.
    for (const Adj& a : clusters_[cur].nbrs) adj_remove(a.nbr, cur);
    for (uint32_t child : clusters_[cur].children) {
      if (clusters_[child].parent == cur) {
        clusters_[child].parent = 0;
        if (child != c) add_root(child);  // c was already enqueued
      }
    }
    if (next != 0) {
      auto& sibs = clusters_[next].children;
      sibs.erase(std::remove(sibs.begin(), sibs.end(), cur), sibs.end());
    }
    free_cluster(cur);
    cur = next;
  }
}

void TopologyTree::link(Vertex u, Vertex v, Weight w) {
  assert(u != v && !connected(u, v));
  const Update up{u, v, w, false};
  update({&up, 1});
}

void TopologyTree::cut(Vertex u, Vertex v) {
  assert(has_edge(u, v));
  const Update up{u, v, 0, true};
  update({&up, 1});
}

void TopologyTree::batch_update(const std::vector<Update>& batch) {
  update(batch);
}

void TopologyTree::update(std::span<const Update> batch) {
  endpoints_.clear();
  for (const Update& up : batch) {
    endpoints_.push_back(up.u);
    endpoints_.push_back(up.v);
  }
  std::sort(endpoints_.begin(), endpoints_.end());
  endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                   endpoints_.end());
  // Topology trees delete every ancestor of every touched leaf, so edges
  // only need maintaining at level 0.
  for (Vertex v : endpoints_) delete_ancestors(leaf_id(v));
  for (const Update& up : batch) {
    uint32_t lu = leaf_id(up.u), lv = leaf_id(up.v);
    if (up.is_delete) {
      adj_remove(lu, lv);
      adj_remove(lv, lu);
    } else {
      clusters_[lu].nbrs.push_back({lv, up.u, up.v, up.w});
      clusters_[lv].nbrs.push_back({lu, up.v, up.u, up.w});
      assert(clusters_[lu].nbrs.size() <= 3 && clusters_[lv].nbrs.size() <= 3);
    }
  }
  for (Vertex v : endpoints_) refresh_leaf(leaf_id(v));
  recluster();
}

void TopologyTree::batch_link(const std::vector<Edge>& edges) {
  std::vector<Update> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back({e.u, e.v, e.w, false});
  batch_update(batch);
}

void TopologyTree::batch_cut(const std::vector<Edge>& edges) {
  std::vector<Update> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back({e.u, e.v, e.w, true});
  batch_update(batch);
}

bool TopologyTree::has_edge(Vertex u, Vertex v) const {
  return adj_contains(leaf_id(u), leaf_id(v));
}

size_t TopologyTree::degree(Vertex v) const {
  return clusters_[leaf_id(v)].nbrs.size();
}

void TopologyTree::set_vertex_weight(Vertex v, Weight w) {
  vweight_[v] = w;
  refresh_leaf(leaf_id(v));
  for (uint32_t c = clusters_[leaf_id(v)].parent; c != 0;
       c = clusters_[c].parent)
    recompute_aggregates(c);
}

void TopologyTree::set_mark(Vertex v, bool m) {
  marked_[v] = m ? 1 : 0;
  refresh_leaf(leaf_id(v));
  for (uint32_t c = clusters_[leaf_id(v)].parent; c != 0;
       c = clusters_[c].parent)
    recompute_aggregates(c);
}

// Creates a fanout-2 parent over root clusters x and y merged along `edge`
// (an adjacency entry of x pointing at y).
uint32_t TopologyTree::new_parent_pair(uint32_t x, uint32_t y,
                                       const Adj& edge) {
  uint32_t p = alloc_cluster(clusters_[x].level + 1);
  Cluster& pc = clusters_[p];
  pc.children = {x, y};
  pc.merge_u = edge.my_end;
  pc.merge_v = edge.other_end;
  pc.merge_w = edge.w;
  clusters_[x].parent = p;
  clusters_[y].parent = p;
  add_root(p);
  return p;
}

uint32_t TopologyTree::new_parent_single(uint32_t x) {
  uint32_t p = alloc_cluster(clusters_[x].level + 1);
  clusters_[p].children = {x};
  clusters_[x].parent = p;
  add_root(p);
  return p;
}

// Root cluster x joins the existing fanout-1 parent of its neighbor y.
// The parent's contents change, so its ancestors are removed first
// (Algorithm 2, lines 18/26) and it becomes a root cluster at level i+1.
void TopologyTree::attach_to_existing_parent(uint32_t x, uint32_t y) {
  uint32_t p = clusters_[y].parent;
  delete_ancestors(p);  // detaches p and enqueues it as a root cluster
  clusters_[p].children.push_back(x);
  clusters_[x].parent = p;
  // Record the merge edge (x -- y) for query traversals. children order:
  // y was children[0]; x appended as children[1].
  for (const Adj& a : clusters_[y].nbrs) {
    if (a.nbr == x) {
      clusters_[p].merge_u = a.my_end;   // inside y = children[0]
      clusters_[p].merge_v = a.other_end;  // inside x = children[1]
      clusters_[p].merge_w = a.w;
      break;
    }
  }
}

void TopologyTree::recluster() {
  for (size_t lvl = 0; lvl < roots_.size(); ++lvl) {
    std::vector<uint32_t> batch = std::move(roots_[lvl]);
    roots_[lvl].clear();
    if (batch.empty()) continue;
    // Deduplicate and drop clusters freed or merged since being enqueued.
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());

    std::vector<uint32_t> changed;  // level lvl+1 clusters needing rebuild
    for (uint32_t x : batch) {
      Cluster& xc = clusters_[x];
      if (xc.level != static_cast<int32_t>(lvl)) continue;  // freed/reused
      if (xc.parent != 0) continue;  // already merged this round
      size_t d = xc.nbrs.size();
      if (d == 0) continue;  // completed tree root
      bool merged = false;
      if (d <= 2) {
        for (const Adj& a : xc.nbrs) {
          uint32_t y = a.nbr;
          size_t dy = clusters_[y].nbrs.size();
          if (d + dy > 4) continue;  // only (1,1),(1,2),(2,2),(1,3) allowed
          if (clusters_[y].parent == 0) {
            changed.push_back(new_parent_pair(x, y, a));
            merged = true;
            break;
          }
          if (clusters_[clusters_[y].parent].children.size() == 1) {
            attach_to_existing_parent(x, y);
            changed.push_back(clusters_[x].parent);
            merged = true;
            break;
          }
        }
      } else {  // d == 3: may only merge with a degree-1 neighbor
        for (const Adj& a : xc.nbrs) {
          uint32_t y = a.nbr;
          if (clusters_[y].nbrs.size() != 1) continue;
          if (clusters_[y].parent == 0) {
            changed.push_back(new_parent_pair(x, y, a));
            merged = true;
            break;
          }
          if (clusters_[clusters_[y].parent].children.size() == 1) {
            attach_to_existing_parent(x, y);
            changed.push_back(clusters_[x].parent);
            merged = true;
            break;
          }
        }
      }
      if (!merged) changed.push_back(new_parent_single(x));
    }
    // Rebuild adjacency, then aggregates (aggregates read boundary slots
    // derived from the rebuilt adjacency).
    for (uint32_t p : changed) rebuild_adjacency(p);
    for (uint32_t p : changed) recompute_aggregates(p);
  }
  roots_.assign(1, {});
}

void TopologyTree::rebuild_adjacency(uint32_t p) {
  Cluster& pc = clusters_[p];
  for (const Adj& a : pc.nbrs) adj_remove(a.nbr, p);
  pc.nbrs.clear();
  for (uint32_t c : pc.children) {
    for (const Adj& a : clusters_[c].nbrs) {
      uint32_t q = clusters_[a.nbr].parent;
      assert(q != 0 && "neighbor must have been reclustered");
      if (q == p) continue;  // edge internal to p
      if (!adj_contains(p, q))
        pc.nbrs.push_back({q, a.my_end, a.other_end, a.w});
      if (!adj_contains(q, p))
        clusters_[q].nbrs.push_back({p, a.other_end, a.my_end, a.w});
    }
  }
}

int TopologyTree::boundary_slot(const Cluster& c, Vertex bv) const {
  if (c.bv[0] == bv) return 0;
  if (c.bv[1] == bv) return 1;
  return -1;
}

void TopologyTree::recompute_aggregates(uint32_t p) {
  Cluster& pc = clusters_[p];
  // Boundary vertices: distinct inside-endpoints of incident edges.
  pc.bv[0] = pc.bv[1] = kNoVertex;
  for (const Adj& a : pc.nbrs) {
    if (pc.bv[0] == kNoVertex || pc.bv[0] == a.my_end) {
      pc.bv[0] = a.my_end;
    } else if (pc.bv[1] == kNoVertex || pc.bv[1] == a.my_end) {
      pc.bv[1] = a.my_end;
    } else {
      assert(false && "cluster has >2 distinct boundary vertices");
    }
  }
  if (pc.children.size() == 1) {
    const Cluster& c = clusters_[pc.children[0]];
    pc.n_verts = c.n_verts;
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
  assert(pc.children.size() == 2);
  const Cluster& a = clusters_[pc.children[0]];
  const Cluster& b = clusters_[pc.children[1]];
  pc.n_verts = a.n_verts + b.n_verts;
  pc.sub_sum = a.sub_sum + b.sub_sum;
  pc.marked_count = a.marked_count + b.marked_count;
  int sa = boundary_slot(a, pc.merge_u);
  int sb = boundary_slot(b, pc.merge_v);
  assert(sa >= 0 && sb >= 0);
  // Hop distance between two boundary vertices of a child: its cluster-path
  // hop length if they are distinct, 0 if they coincide.
  auto inner_dist = [](const Cluster& c, Vertex from, Vertex to) -> int64_t {
    return from == to ? 0 : c.path_len;
  };
  pc.diam = std::max({a.diam, b.diam,
                      a.max_dist[sa] + 1 + b.max_dist[sb]});
  for (int i = 0; i < 2; ++i) {
    Vertex q = pc.bv[i];
    if (q == kNoVertex) {
      pc.max_dist[i] = 0;
      pc.sum_dist[i] = 0;
      pc.marked_dist[i] = kInf;
      continue;
    }
    int qa = boundary_slot(a, q);
    const Cluster &x = qa >= 0 ? a : b, &y = qa >= 0 ? b : a;
    Vertex xe = qa >= 0 ? pc.merge_u : pc.merge_v;
    Vertex ye = qa >= 0 ? pc.merge_v : pc.merge_u;
    int sq = qa >= 0 ? qa : boundary_slot(b, q);
    assert(sq >= 0);
    int sxe = boundary_slot(x, xe);
    int sye = boundary_slot(y, ye);
    int64_t dq = inner_dist(x, q, xe);  // q -> merge endpoint within x
    pc.max_dist[i] = std::max(x.max_dist[sq], dq + 1 + y.max_dist[sye]);
    pc.sum_dist[i] =
        x.sum_dist[sq] + (dq + 1) * y.sub_sum + y.sum_dist[sye];
    pc.marked_dist[i] =
        std::min(x.marked_dist[sq],
                 y.marked_dist[sye] >= kInf ? kInf
                                            : dq + 1 + y.marked_dist[sye]);
    (void)sxe;
  }
  // Cluster path between pc's two (distinct) boundary vertices.
  pc.path_sum = 0;
  pc.path_max = kNegInf;
  pc.path_len = 0;
  if (pc.bv[0] != kNoVertex && pc.bv[1] != kNoVertex && pc.bv[0] != pc.bv[1]) {
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
      // One boundary in each child: path = within-child parts + merge edge.
      const Cluster& ca = clusters_[pc.children[0]];
      const Cluster& cb = clusters_[pc.children[1]];
      Vertex qa2 = b0a >= 0 ? pc.bv[0] : pc.bv[1];  // boundary inside a
      Vertex qb2 = b0a >= 0 ? pc.bv[1] : pc.bv[0];  // boundary inside b
      Weight sum = pc.merge_w;
      Weight mx = pc.merge_w;
      int64_t len = 1;
      if (qa2 != pc.merge_u) {
        sum += ca.path_sum;
        mx = std::max(mx, ca.path_max);
        len += ca.path_len;
      }
      if (qb2 != pc.merge_v) {
        sum += cb.path_sum;
        mx = std::max(mx, cb.path_max);
        len += cb.path_len;
      }
      pc.path_sum = sum;
      pc.path_max = mx;
      pc.path_len = len;
    }
  }
}

size_t TopologyTree::height(Vertex v) const {
  size_t h = 0;
  for (uint32_t c = leaf_id(v); clusters_[c].parent != 0;
       c = clusters_[c].parent)
    ++h;
  return h;
}

size_t TopologyTree::memory_bytes() const {
  size_t bytes = clusters_.capacity() * sizeof(Cluster) + sizeof(*this);
  for (const Cluster& c : clusters_) {
    bytes += c.nbrs.capacity() * sizeof(Adj);
    bytes += c.children.capacity() * sizeof(uint32_t);
  }
  bytes += free_.capacity() * sizeof(uint32_t);
  bytes += vweight_.capacity() * sizeof(Weight) + marked_.capacity();
  return bytes;
}

bool TopologyTree::check_valid() const {
  for (uint32_t id = 1; id < clusters_.size(); ++id) {
    const Cluster& c = clusters_[id];
    if (c.level == kFreedLevel) continue;
    // Degree bound.
    if (c.nbrs.size() > 3) return false;
    // Fanout bound and child/parent consistency.
    if (c.children.size() > 2) return false;
    for (uint32_t ch : c.children) {
      if (clusters_[ch].parent != id) return false;
      if (clusters_[ch].level != c.level - 1) return false;
    }
    // Degree-3 clusters must be single vertices (fanout 1 chains to a leaf).
    if (c.nbrs.size() == 3 && c.n_verts != 1) return false;
    // Adjacency symmetry.
    for (const Adj& a : c.nbrs) {
      if (!adj_contains(a.nbr, id)) return false;
      if (clusters_[a.nbr].level != c.level) return false;
    }
    // Every non-root cluster's merge must be one of the allowed pairs.
    if (c.children.size() == 2) {
      // Children's adjacency (at their own level) still includes the merge
      // edge, so pre-merge degrees are their nbrs sizes. Allowed merges:
      // (1,1), (1,2), (2,2), (1,3) <=> degree sum <= 4.
      size_t d0 = clusters_[c.children[0]].nbrs.size();
      size_t d1 = clusters_[c.children[1]].nbrs.size();
      if (d0 + d1 > 4) return false;
      if (!adj_contains(c.children[0], c.children[1])) return false;
    }
    // Maximality: a root cluster (parent == 0) with degree > 0 must have no
    // neighbor it could merge with that also failed to merge.
    if (c.parent == 0 && !c.nbrs.empty()) {
      for (const Adj& a : c.nbrs) {
        const Cluster& y = clusters_[a.nbr];
        size_t d = c.nbrs.size(), dy = y.nbrs.size();
        bool allowed = d + dy <= 4;
        if (allowed && y.parent == 0) return false;  // both unmerged
      }
    }
  }
  return true;
}

}  // namespace ufo::seq
