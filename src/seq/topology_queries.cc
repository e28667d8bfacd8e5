// Topology tree queries (Appendix C.1 of the paper): path aggregates via
// representative-path climbs, subtree aggregates via boundary tracking, LCA
// via distance arithmetic + path selection, and the non-local queries
// (diameter / center / median / nearest marked vertex).
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/capabilities.h"
#include "seq/topology_tree.h"

namespace ufo::seq {

bool TopologyTree::connected(Vertex u, Vertex v) const {
  if (u == v) return true;
  return tree_root(u) == tree_root(v);
}

// A query whose input breaks its precondition: name it and abort.
[[noreturn]] static void bad_query(const char* query, Vertex a, Vertex b,
                                   const char* what) {
  std::fprintf(stderr, "topology: %s(%u, %u): %s\n", query, a, b, what);
  std::abort();
}

uint32_t TopologyTree::lca_cluster(uint32_t a, uint32_t b) const {
  while (clusters_[a].level < clusters_[b].level)
    if ((a = clusters_[a].parent) == 0) return 0;
  while (clusters_[b].level < clusters_[a].level)
    if ((b = clusters_[b].parent) == 0) return 0;
  while (a != b) {
    a = clusters_[a].parent;
    b = clusters_[b].parent;
    if (a == 0 || b == 0) return 0;
  }
  return a;
}

template <class Visit>
TopologyTree::RepPath TopologyTree::climb_rep_path(Vertex from, uint32_t stop,
                                                   uint32_t* child,
                                                   Visit&& visit) const {
  uint32_t c = leaf_id(from);
  RepPath rp;  // leaf: boundary = from itself; identity values (slot 0)
  while (clusters_[c].parent != stop) {
    uint32_t p = clusters_[c].parent;
    assert(p != 0 && "stop must be an ancestor");
    visit(c, p, rp);
    const Cluster& pc = clusters_[p];
    const Cluster& cc = clusters_[c];
    RepPath np;
    if (pc.children.size() == 1) {
      for (int i = 0; i < 2; ++i) {
        if (pc.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cc, pc.bv[i]);
        assert(j >= 0);
        np.sum[i] = rp.sum[j];
        np.max[i] = rp.max[j];
        np.len[i] = rp.len[j];
      }
    } else {
      bool first = (pc.children[0] == c);
      uint32_t sib = first ? pc.children[1] : pc.children[0];
      Vertex xe = first ? pc.merge_u : pc.merge_v;  // inside c
      Vertex se = first ? pc.merge_v : pc.merge_u;  // inside sibling
      const Cluster& sc = clusters_[sib];
      for (int i = 0; i < 2; ++i) {
        Vertex q = pc.bv[i];
        if (q == kNoVertex) continue;
        int j = boundary_slot(cc, q);
        if (j >= 0) {
          np.sum[i] = rp.sum[j];
          np.max[i] = rp.max[j];
          np.len[i] = rp.len[j];
        } else {
          // Path exits c via the merge edge and continues along the
          // sibling's cluster path to q.
          int jx = boundary_slot(cc, xe);
          assert(jx >= 0 && boundary_slot(sc, q) >= 0);
          np.sum[i] = rp.sum[jx] + pc.merge_w;
          np.max[i] = std::max(rp.max[jx], pc.merge_w);
          np.len[i] = rp.len[jx] + 1;
          if (q != se) {
            np.sum[i] += sc.path_sum;
            np.max[i] = std::max(np.max[i], sc.path_max);
            np.len[i] += sc.path_len;
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

// The LCA cluster of two distinct leaves is a pair merge whose merge edge
// lies on the u--v path.
TopologyTree::PathAgg TopologyTree::path_agg(Vertex u, Vertex v,
                                             const char* query) const {
  if (u == v) return {0, std::numeric_limits<Weight>::min(), 0};
  uint32_t lca = lca_cluster(leaf_id(u), leaf_id(v));
  if (lca == 0) bad_query(query, u, v, "vertices in different trees");
  auto no_visit = [](uint32_t, uint32_t, const RepPath&) {};
  uint32_t cu = 0, cv = 0;
  RepPath ru = climb_rep_path(u, lca, &cu, no_visit);
  RepPath rv = climb_rep_path(v, lca, &cv, no_visit);
  const Cluster& L = clusters_[lca];
  assert(L.children.size() == 2);
  Vertex eu = L.children[0] == cu ? L.merge_u : L.merge_v;
  Vertex ev = L.children[0] == cv ? L.merge_u : L.merge_v;
  int su = boundary_slot(clusters_[cu], eu);
  int sv = boundary_slot(clusters_[cv], ev);
  assert(su >= 0 && sv >= 0);
  return {ru.sum[su] + L.merge_w + rv.sum[sv],
          std::max({ru.max[su], L.merge_w, rv.max[sv]}),
          ru.len[su] + 1 + rv.len[sv]};
}

Weight TopologyTree::path_sum(Vertex u, Vertex v) const {
  return path_agg(u, v, "path_sum").sum;
}

Weight TopologyTree::path_max(Vertex u, Vertex v) const {
  return path_agg(u, v, "path_max").max;
}

int64_t TopologyTree::path_length(Vertex u, Vertex v) const {
  return path_agg(u, v, "path_length").len;
}

// Subtree aggregates of v with parent p: climb from the child V of the LCA
// cluster on v's side, tracking which boundary vertices of the current
// cluster still lie inside subtree(v, p); siblings attaching at an inside
// boundary contribute their whole contents. The LCA merge is across the
// (v, p) edge itself, so p's side is never taken.
TopologyTree::SubtreeAgg TopologyTree::subtree_agg(Vertex v, Vertex p,
                                                   const char* query) const {
  if (!has_edge(v, p)) bad_query(query, v, p, "not a forest edge");
  uint32_t lca = lca_cluster(leaf_id(v), leaf_id(p));
  uint32_t x = leaf_id(v);
  while (clusters_[x].parent != lca) x = clusters_[x].parent;
  const Cluster& V = clusters_[x];
  SubtreeAgg acc{V.sub_sum, V.n_verts};
  // in[i]: is boundary bv[i] of the current cluster inside subtree(v, p)?
  bool in[2] = {false, false};
  for (int i = 0; i < 2; ++i)
    if (V.bv[i] != kNoVertex) in[i] = true;  // all of V is inside
  bool first_step = true;
  while (clusters_[x].parent != 0) {
    uint32_t pid = clusters_[x].parent;
    const Cluster& pc = clusters_[pid];
    const Cluster& xc = clusters_[x];
    bool nin[2] = {false, false};
    if (pc.children.size() == 1) {
      for (int i = 0; i < 2; ++i) {
        if (pc.bv[i] == kNoVertex) continue;
        int j = boundary_slot(xc, pc.bv[i]);
        nin[i] = j >= 0 && in[j];
      }
    } else {
      bool xfirst = (pc.children[0] == x);
      const Cluster& sc = clusters_[pc.children[xfirst ? 1 : 0]];
      int jx = boundary_slot(xc, xfirst ? pc.merge_u : pc.merge_v);
      bool sib_inside = !first_step && jx >= 0 && in[jx];
      if (sib_inside) {
        acc.sum += sc.sub_sum;
        acc.size += sc.n_verts;
      }
      for (int i = 0; i < 2; ++i) {
        Vertex q = pc.bv[i];
        if (q == kNoVertex) continue;
        int j = boundary_slot(xc, q);
        nin[i] = j >= 0 ? in[j] : sib_inside;
      }
    }
    in[0] = nin[0];
    in[1] = nin[1];
    x = pid;
    first_step = false;
  }
  return acc;
}

Weight TopologyTree::subtree_sum(Vertex v, Vertex p) const {
  return subtree_agg(v, p, "subtree_sum").sum;
}

size_t TopologyTree::subtree_size(Vertex v, Vertex p) const {
  return subtree_agg(v, p, "subtree_size").size;
}

Vertex TopologyTree::lca(Vertex u, Vertex v, Vertex r) const {
  // The LCA of u and v w.r.t. root r is the meeting vertex of the three
  // pairwise paths; it sits at hop (d(u,v) + d(u,r) - d(v,r)) / 2 from u on
  // the u--v path.
  if (u == v) return u;
  if (u == r || v == r) return r;
  int64_t duv = path_length(u, v);
  int64_t dur = path_length(u, r);
  int64_t dvr = path_length(v, r);
  int64_t k = (duv + dur - dvr) / 2;
  return core::path_select(*this, u, v, k);
}

// Exposes the merge edge (a,b) of the LCA cluster of u and v: a on u's
// side, b on v's side. Both lie on the u--v path.
void TopologyTree::path_milestone(Vertex u, Vertex v, Vertex* a,
                                  Vertex* b) const {
  if (u == v) bad_query("path_milestone", u, v, "empty path");
  uint32_t lca = lca_cluster(leaf_id(u), leaf_id(v));
  if (lca == 0)
    bad_query("path_milestone", u, v, "vertices in different trees");
  const Cluster& L = clusters_[lca];
  assert(L.children.size() == 2);
  uint32_t cu = leaf_id(u);
  while (clusters_[cu].parent != lca) cu = clusters_[cu].parent;
  if (L.children[0] == cu) {
    *a = L.merge_u;
    *b = L.merge_v;
  } else {
    *a = L.merge_v;
    *b = L.merge_u;
  }
}

int64_t TopologyTree::component_diameter(Vertex v) const {
  return clusters_[tree_root(v)].diam;
}

// One representative-path climb to the root: at each pair merge the
// visitor scores the sibling by its nearest mark from the merge edge.
int64_t TopologyTree::nearest_marked_distance(Vertex v) const {
  int64_t best = marked_[v] ? 0 : kInf;
  auto visit = [&](uint32_t c, uint32_t p, const RepPath& rp) {
    const Cluster& pc = clusters_[p];
    if (pc.children.size() != 2) return;
    bool first = (pc.children[0] == c);
    const Cluster& sc = clusters_[pc.children[first ? 1 : 0]];
    int jx = boundary_slot(clusters_[c], first ? pc.merge_u : pc.merge_v);
    int js = boundary_slot(sc, first ? pc.merge_v : pc.merge_u);
    assert(jx >= 0 && js >= 0);
    if (sc.marked_dist[js] < kInf)
      best = std::min(best, rp.len[jx] + 1 + sc.marked_dist[js]);
  };
  uint32_t root = 0;
  climb_rep_path(v, 0, &root, visit);
  return best >= kInf ? -1 : best;
}

Vertex TopologyTree::component_center(Vertex v) const {
  uint32_t c = tree_root(v);
  // ext[i]: max distance from boundary bv[i] of the current cluster to any
  // vertex outside the cluster (kNegInf if boundary unused).
  int64_t ext[2] = {INT64_MIN / 4, INT64_MIN / 4};
  while (!clusters_[c].children.empty()) {
    const Cluster& pc = clusters_[c];
    if (pc.children.size() == 1) {
      uint32_t ch = pc.children[0];
      const Cluster& cc = clusters_[ch];
      int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
      for (int i = 0; i < 2; ++i) {
        if (pc.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cc, pc.bv[i]);
        if (j >= 0) next[j] = std::max(next[j], ext[i]);
      }
      ext[0] = next[0];
      ext[1] = next[1];
      c = ch;
      continue;
    }
    uint32_t A = pc.children[0], B = pc.children[1];
    const Cluster& ac = clusters_[A];
    const Cluster& bc = clusters_[B];
    int sa = boundary_slot(ac, pc.merge_u);
    int sb = boundary_slot(bc, pc.merge_v);
    auto side_far = [&](const Cluster& side, int sm, Vertex me) -> int64_t {
      // Farthest vertex from the merge endpoint among: side's content and
      // anything outside pc hanging via pc-boundaries located in this side.
      int64_t far = side.max_dist[sm];
      for (int i = 0; i < 2; ++i) {
        Vertex q = pc.bv[i];
        if (q == kNoVertex || ext[i] <= INT64_MIN / 8) continue;
        int j = boundary_slot(side, q);
        if (j < 0) continue;
        int64_t d = (q == me) ? 0 : side.path_len;
        far = std::max(far, d + ext[i]);
      }
      return far;
    };
    int64_t fa = side_far(ac, sa, pc.merge_u);
    int64_t fb = side_far(bc, sb, pc.merge_v);
    // Descend toward the deeper side; compute the child's ext values.
    // fa == fb makes both merge endpoints centers; the smaller id wins.
    bool go_a = fa > fb || (fa == fb && pc.merge_u < pc.merge_v);
    const Cluster& go = go_a ? ac : bc;
    uint32_t goid = go_a ? A : B;
    Vertex ge = go_a ? pc.merge_u : pc.merge_v;
    int64_t other_far = go_a ? fb : fa;
    int64_t next[2] = {INT64_MIN / 4, INT64_MIN / 4};
    for (int i = 0; i < 2; ++i) {
      if (go.bv[i] == kNoVertex) continue;
      if (go.bv[i] == ge) next[i] = std::max(next[i], other_far + 1);
      for (int k = 0; k < 2; ++k) {
        if (pc.bv[k] == go.bv[i] && ext[k] > INT64_MIN / 8)
          next[i] = std::max(next[i], ext[k]);
      }
    }
    ext[0] = next[0];
    ext[1] = next[1];
    c = goid;
  }
  return clusters_[c].leaf_vertex;
}

Vertex TopologyTree::component_median(Vertex v) const {
  uint32_t c = tree_root(v);
  int64_t extw[2] = {0, 0};  // total vertex weight outside via boundary i
  while (!clusters_[c].children.empty()) {
    const Cluster& pc = clusters_[c];
    if (pc.children.size() == 1) {
      uint32_t ch = pc.children[0];
      const Cluster& cc = clusters_[ch];
      int64_t next[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        if (pc.bv[i] == kNoVertex) continue;
        int j = boundary_slot(cc, pc.bv[i]);
        if (j >= 0) next[j] += extw[i];
      }
      extw[0] = next[0];
      extw[1] = next[1];
      c = ch;
      continue;
    }
    uint32_t A = pc.children[0], B = pc.children[1];
    const Cluster& ac = clusters_[A];
    const Cluster& bc = clusters_[B];
    auto side_weight = [&](const Cluster& side) -> int64_t {
      int64_t w = side.sub_sum;
      for (int i = 0; i < 2; ++i) {
        Vertex q = pc.bv[i];
        if (q == kNoVertex) continue;
        if (boundary_slot(side, q) >= 0) w += extw[i];
      }
      return w;
    };
    int64_t wa = side_weight(ac);
    int64_t wb = side_weight(bc);
    const Cluster& go = wa >= wb ? ac : bc;
    uint32_t goid = wa >= wb ? A : B;
    Vertex ge = wa >= wb ? pc.merge_u : pc.merge_v;
    int64_t other_w = wa >= wb ? wb : wa;
    int64_t next[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      if (go.bv[i] == kNoVertex) continue;
      if (go.bv[i] == ge) next[i] += other_w;
      for (int k = 0; k < 2; ++k) {
        if (pc.bv[k] == go.bv[i]) next[i] += extw[k];
      }
    }
    extw[0] = next[0];
    extw[1] = next[1];
    c = goid;
  }
  return clusters_[c].leaf_vertex;
}

}  // namespace ufo::seq
