#include "graph/generators.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "util/random.h"
#include "util/union_find.h"
#include "util/zipf.h"

namespace ufo::gen {

using util::SplitMix64;

EdgeList path(size_t n) {
  EdgeList e;
  e.reserve(n ? n - 1 : 0);
  for (size_t i = 1; i < n; ++i)
    e.push_back({static_cast<Vertex>(i - 1), static_cast<Vertex>(i), 1});
  return e;
}

EdgeList kary(size_t n, size_t k) {
  EdgeList e;
  e.reserve(n ? n - 1 : 0);
  for (size_t i = 1; i < n; ++i)
    e.push_back({static_cast<Vertex>((i - 1) / k), static_cast<Vertex>(i), 1});
  return e;
}

EdgeList perfect_binary(size_t n) { return kary(n, 2); }

EdgeList star(size_t n) {
  EdgeList e;
  e.reserve(n ? n - 1 : 0);
  for (size_t i = 1; i < n; ++i)
    e.push_back({0, static_cast<Vertex>(i), 1});
  return e;
}

EdgeList dandelion(size_t n) {
  EdgeList e;
  if (n < 2) return e;
  e.reserve(n - 1);
  size_t leaves = (n - 1) / 2;
  for (size_t i = 1; i <= leaves; ++i)
    e.push_back({0, static_cast<Vertex>(i), 1});
  // Path hanging off the hub through the remaining vertices.
  Vertex prev = 0;
  for (size_t i = leaves + 1; i < n; ++i) {
    e.push_back({prev, static_cast<Vertex>(i), 1});
    prev = static_cast<Vertex>(i);
  }
  return e;
}

EdgeList random_degree3(size_t n, uint64_t seed) {
  EdgeList e;
  if (n < 2) return e;
  e.reserve(n - 1);
  SplitMix64 rng(seed);
  std::vector<Vertex> open;  // vertices with degree < 3
  std::vector<uint8_t> deg(n, 0);
  open.push_back(0);
  for (size_t i = 1; i < n; ++i) {
    size_t idx = rng.next(open.size());
    Vertex target = open[idx];
    e.push_back({target, static_cast<Vertex>(i), 1});
    if (++deg[target] == 3) {
      open[idx] = open.back();
      open.pop_back();
    }
    deg[i] = 1;
    open.push_back(static_cast<Vertex>(i));
  }
  return e;
}

EdgeList random_unbounded(size_t n, uint64_t seed) {
  EdgeList e;
  if (n < 2) return e;
  e.reserve(n - 1);
  SplitMix64 rng(seed);
  for (size_t i = 1; i < n; ++i)
    e.push_back({static_cast<Vertex>(rng.next(i)), static_cast<Vertex>(i), 1});
  return e;
}

EdgeList pref_attach(size_t n, uint64_t seed) {
  EdgeList e;
  if (n < 2) return e;
  e.reserve(n - 1);
  SplitMix64 rng(seed);
  // Classic endpoint-array trick: sampling a uniform entry of `ends` samples
  // a vertex proportional to its degree.
  std::vector<Vertex> ends;
  ends.reserve(2 * n);
  e.push_back({0, 1, 1});
  ends.push_back(0);
  ends.push_back(1);
  for (size_t i = 2; i < n; ++i) {
    Vertex target = ends[rng.next(ends.size())];
    e.push_back({target, static_cast<Vertex>(i), 1});
    ends.push_back(target);
    ends.push_back(static_cast<Vertex>(i));
  }
  return e;
}

EdgeList zipf_tree(size_t n, double alpha, uint64_t seed) {
  EdgeList e;
  if (n < 2) return e;
  e.reserve(n - 1);
  SplitMix64 rng(seed);
  util::ZipfSampler zipf(n, alpha);
  for (size_t i = 1; i < n; ++i) {
    size_t target = zipf.sample(rng);
    if (target >= i) target = rng.next(i);  // clamp into [0, i)
    e.push_back({static_cast<Vertex>(target), static_cast<Vertex>(i), 1});
  }
  // Randomly permute the ids so low-id hubs are not positionally special.
  std::vector<Vertex> perm = util::random_permutation(n, seed ^ 0xabcdef);
  for (auto& ed : e) {
    ed.u = perm[ed.u];
    ed.v = perm[ed.v];
  }
  return e;
}

EdgeList grid_graph(size_t rows, size_t cols) {
  EdgeList e;
  e.reserve(2 * rows * cols);
  auto id = [cols](size_t r, size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) e.push_back({id(r, c), id(r, c + 1), 1});
      if (r + 1 < rows) e.push_back({id(r, c), id(r + 1, c), 1});
    }
  }
  return e;
}

EdgeList social_graph(size_t n, size_t degree, uint64_t seed) {
  EdgeList e;
  if (n < 2) return e;
  SplitMix64 rng(seed);
  std::vector<Vertex> ends;
  ends.reserve(2 * n * degree);
  std::unordered_set<uint64_t> seen;
  e.push_back({0, 1, 1});
  seen.insert(edge_key(0, 1));
  ends.push_back(0);
  ends.push_back(1);
  for (size_t i = 2; i < n; ++i) {
    for (size_t d = 0; d < degree; ++d) {
      Vertex target = ends[rng.next(ends.size())];
      // The contract promises a simple graph: drop self-loops and re-drawn
      // duplicates (attachment rounds for the same i can repeat a target).
      if (target == i) continue;
      if (!seen.insert(edge_key(target, static_cast<Vertex>(i))).second)
        continue;
      e.push_back({target, static_cast<Vertex>(i), 1});
      ends.push_back(target);
      ends.push_back(static_cast<Vertex>(i));
    }
  }
  return e;
}

EdgeList bfs_forest(size_t n, const EdgeList& edges, uint64_t seed) {
  std::vector<std::vector<Vertex>> adj(n);
  for (const Edge& ed : edges) {
    if (ed.u == ed.v) continue;
    adj[ed.u].push_back(ed.v);
    adj[ed.v].push_back(ed.u);
  }
  std::vector<uint8_t> visited(n, 0);
  EdgeList out;
  std::vector<Vertex> order = util::random_permutation(n, seed);
  std::deque<Vertex> queue;
  for (Vertex root : order) {
    if (visited[root]) continue;
    visited[root] = 1;
    queue.push_back(root);
    while (!queue.empty()) {
      Vertex u = queue.front();
      queue.pop_front();
      for (Vertex v : adj[u]) {
        if (!visited[v]) {
          visited[v] = 1;
          out.push_back({u, v, 1});
          queue.push_back(v);
        }
      }
    }
  }
  return out;
}

EdgeList ris_forest(size_t n, const EdgeList& edges, uint64_t seed) {
  EdgeList shuffled = edges;
  util::shuffle(shuffled, seed);
  util::UnionFind uf(n);
  EdgeList out;
  for (const Edge& ed : shuffled) {
    if (ed.u != ed.v && uf.unite(ed.u, ed.v)) out.push_back(ed);
  }
  return out;
}

size_t forest_diameter(size_t n, const EdgeList& edges) {
  std::vector<std::vector<Vertex>> adj(n);
  for (const Edge& ed : edges) {
    adj[ed.u].push_back(ed.v);
    adj[ed.v].push_back(ed.u);
  }
  std::vector<uint32_t> dist(n, ~0u);
  std::vector<Vertex> frontier;
  auto bfs_far = [&](Vertex src) {
    std::deque<Vertex> q{src};
    dist[src] = 0;
    Vertex far = src;
    frontier.push_back(src);
    while (!q.empty()) {
      Vertex u = q.front();
      q.pop_front();
      if (dist[u] > dist[far]) far = u;
      for (Vertex v : adj[u]) {
        if (dist[v] == ~0u) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
          q.push_back(v);
        }
      }
    }
    return far;
  };
  std::vector<uint8_t> seen(n, 0);
  size_t best = 0;
  for (Vertex s = 0; s < n; ++s) {
    if (seen[s]) continue;
    frontier.clear();
    Vertex a = bfs_far(s);
    for (Vertex v : frontier) {
      seen[v] = 1;
      dist[v] = ~0u;
    }
    std::vector<Vertex> comp = frontier;
    frontier.clear();
    Vertex b = bfs_far(a);
    best = std::max(best, static_cast<size_t>(dist[b]));
    for (Vertex v : frontier) dist[v] = ~0u;
    (void)comp;
  }
  return best;
}

std::vector<NamedInput> synthetic_suite(size_t n, uint64_t seed) {
  std::vector<NamedInput> suite;
  suite.push_back({"Path", path(n), n});
  suite.push_back({"Binary", perfect_binary(n), n});
  suite.push_back({"64-ary", kary(n, 64), n});
  suite.push_back({"Star", star(n), n});
  suite.push_back({"Dand", dandelion(n), n});
  suite.push_back({"Random3", random_degree3(n, seed), n});
  suite.push_back({"Random", random_unbounded(n, seed + 1), n});
  suite.push_back({"P-Attach", pref_attach(n, seed + 2), n});
  return suite;
}

std::vector<NamedInput> realworld_suite(size_t scale, uint64_t seed) {
  std::vector<NamedInput> suite;
  // Road-like: 2-D grid (high diameter), analogous to USA roads.
  size_t side = 1;
  while (side * side < scale) ++side;
  EdgeList road = grid_graph(side, side);
  size_t road_n = side * side;
  // Web/social-like: preferential attachment with average degree ~8,
  // analogous to ENWiki / StackOverflow / Twitter.
  EdgeList web = social_graph(scale, 4, seed + 7);
  EdgeList soc = social_graph(scale, 8, seed + 11);

  suite.push_back({"ROAD-BFS", bfs_forest(road_n, road, seed), road_n});
  suite.push_back({"WEB-BFS", bfs_forest(scale, web, seed + 1), scale});
  suite.push_back({"SOC-BFS", bfs_forest(scale, soc, seed + 2), scale});
  suite.push_back({"ROAD-RIS", ris_forest(road_n, road, seed + 3), road_n});
  suite.push_back({"WEB-RIS", ris_forest(scale, web, seed + 4), scale});
  suite.push_back({"SOC-RIS", ris_forest(scale, soc, seed + 5), scale});
  return suite;
}

}  // namespace ufo::gen
