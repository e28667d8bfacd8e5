// Common graph types shared by every dynamic-tree structure in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ufo {

// Vertex identifiers are dense 0..n-1 integers.
using Vertex = uint32_t;
inline constexpr Vertex kNoVertex = ~0u;

// Edge weights are 64-bit integers; 1 by default (unweighted inputs).
using Weight = int64_t;

struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 1;
};

using EdgeList = std::vector<Edge>;

// Endpoint j of an edge list: edges[j / 2].u for even j, .v for odd j.
inline Vertex endpoint(const EdgeList& edges, size_t j) {
  return (j & 1) ? edges[j >> 1].v : edges[j >> 1].u;
}

// A batch-update entry: insert (is_delete = false) or delete an edge.
struct Update {
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 1;
  bool is_delete = false;
};

// Canonical 64-bit key for an undirected edge (order-insensitive).
inline uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) {
    Vertex t = u;
    u = v;
    v = t;
  }
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace ufo
