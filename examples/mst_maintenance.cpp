// Dynamic minimum spanning forest via path-maximum queries.
//
// The classic application of dynamic trees the paper's introduction cites
// (Holm et al., Tseng et al.): maintain a minimum spanning forest of a
// graph under edge insertions. For each inserted graph edge (u, v, w):
//
//   * if u and v are disconnected in the MSF, the edge joins it (link);
//   * otherwise find the maximum-weight edge on the u--v tree path
//     (path_max + path_milestone to locate it); if it is heavier than w,
//     swap it out (cut + link) — the cycle property.
//
// The MSF weight is cross-checked against an offline Kruskal run over the
// same edge stream.
//
//   ./examples/mst_maintenance [n]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "graph/generators.h"
#include "seq/ufo_tree.h"
#include "util/random.h"
#include "util/union_find.h"
#include "util/timer.h"

using namespace ufo;

namespace {

// Offline Kruskal with union-find, for the final cross-check.
Weight kruskal_weight(size_t n, EdgeList edges) {
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
  util::UnionFind uf(n);
  Weight total = 0;
  for (const Edge& e : edges)
    if (uf.unite(e.u, e.v)) total += e.w;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  // Graph stream: a social-network stand-in with ~4n edges and random
  // weights, delivered in random order.
  EdgeList stream = gen::social_graph(n, 4, 77);
  util::SplitMix64 rng(13);
  for (Edge& e : stream) e.w = 1 + static_cast<Weight>(rng.next(1000000));
  util::shuffle(stream, 21);

  seq::UfoTree msf(n);
  // Track which tree edge carries each weight endpoint pair, to locate the
  // heaviest path edge after a path_max query.
  Weight total = 0;
  size_t links = 0, swaps = 0, rejected = 0;

  util::Timer timer;
  for (const Edge& e : stream) {
    if (!msf.connected(e.u, e.v)) {
      msf.link(e.u, e.v, e.w);
      total += e.w;
      ++links;
      continue;
    }
    Weight heaviest = msf.path_max(e.u, e.v);
    if (heaviest <= e.w) {
      ++rejected;  // cycle property: the new edge is not in the MSF
      continue;
    }
    // Locate one heaviest edge on the path by walking milestone splits:
    // path_milestone returns consecutive path vertices (a, b) with the
    // LCA-cluster merge edge between them; recurse into the half whose
    // max matches until the milestone edge itself is the maximum.
    Vertex x = e.u, y = e.v;
    while (true) {
      Vertex a, b;
      msf.path_milestone(x, y, &a, &b);
      Weight wa = (x == a) ? std::numeric_limits<Weight>::min()
                           : msf.path_max(x, a);
      Weight wb = (y == b) ? std::numeric_limits<Weight>::min()
                           : msf.path_max(b, y);
      Weight wm = msf.path_max(a, b);  // the milestone edge itself
      if (wa >= heaviest) {
        y = a;
      } else if (wb >= heaviest) {
        x = b;
      } else {
        (void)wm;
        msf.cut(a, b);
        msf.link(e.u, e.v, e.w);
        total += e.w - heaviest;
        ++swaps;
        break;
      }
      if (x == y) {
        std::fprintf(stderr, "milestone walk failed\n");
        return 1;
      }
    }
  }
  double secs = timer.elapsed();

  Weight expected = kruskal_weight(n, stream);
  std::printf("n=%zu, |stream|=%zu: %zu links, %zu swaps, %zu rejections "
              "in %.3fs\n",
              n, stream.size(), links, swaps, rejected, secs);
  std::printf("dynamic MSF weight: %lld, offline Kruskal: %lld -> %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected),
              total == expected ? "MATCH" : "MISMATCH");
  return total == expected ? 0 : 1;
}
