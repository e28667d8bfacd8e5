// Fleet tracking on a road network: non-local queries in production shape,
// on the general-graph connectivity subsystem.
//
// A dispatch service maintains the *whole* road network (not just a
// spanning tree): GraphConnectivity keeps a spanning forest for routing
// queries and holds every other road as a replacement candidate. Depots are
// *marked* vertices; the dispatcher asks, for any incident location, how
// far the nearest depot is along the forest (nearest_marked_distance).
// Planners ask for the component's diameter (worst-case response transit),
// its center (best new depot site), and its weighted median (best warehouse
// under demand weights). Roadworks close and reopen segments throughout the
// day; when a closure severs a spanning route, the subsystem reroutes over
// a parallel road automatically — the old version of this example did that
// reroute scan by hand.
//
// A long-running dispatcher also wants to survive restarts: with
// --checkpoint the service publishes a durable snapshot of the whole layer
// (forest + non-tree roads + weights) every few simulated hours using the
// crash-consistent protocol in src/recovery/snapshot.h, and --recover
// resumes from the latest published checkpoint instead of rebuilding from
// the map (falling back to a cold start if none exists or it fails to
// verify).
//
//   ./examples/fleet_tracking [grid_side] [--checkpoint=<path>] [--recover]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/ufo.h"
#include "util/random.h"
#include "util/timer.h"

using namespace ufo;

int main(int argc, char** argv) {
  size_t side = 120;
  std::string ckpt;
  bool recover = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--checkpoint=", 13) == 0)
      ckpt = argv[i] + 13;
    else if (std::strcmp(argv[i], "--recover") == 0)
      recover = true;
    else
      side = std::strtoul(argv[i], nullptr, 10);
  }
  size_t n = side * side;
  EdgeList roads = gen::grid_graph(side, side);

  // The depot queries below (nearest marked vertex, diameter, center,
  // median) read the full aggregate set, not just component sizes.
  UfoConnectivity net(n, core::Aggregates::kAll);
  bool recovered = false;
  if (recover && !ckpt.empty()) {
    recovery::LoadStats st;
    recovery::RecoveryError e = net.load_checkpoint(ckpt, {}, &st);
    if (e == recovery::RecoveryError::kNone) {
      recovered = true;
      std::printf("recovered %zu roads from %s (%llu bytes%s)\n",
                  net.num_edges(), ckpt.c_str(),
                  static_cast<unsigned long long>(st.bytes),
                  st.degraded ? ", degraded" : "");
    } else {
      std::fprintf(stderr, "recover from %s failed (%s); cold start\n",
                   ckpt.c_str(), recovery::to_string(e));
    }
  }
  if (!recovered) {
    net.batch_insert(roads);
    // Demand weights: city blocks near the center are busier.
    for (Vertex v = 0; v < n; ++v) {
      size_t r = v / side, c = v % side;
      size_t dist_from_mid =
          (r > side / 2 ? r - side / 2 : side / 2 - r) +
          (c > side / 2 ? c - side / 2 : side / 2 - c);
      net.set_vertex_weight(v, static_cast<Weight>(side - dist_from_mid / 2));
    }
  }

  // Depots: a handful of marked grid points. The draw is deterministic, so
  // a recovered run recomputes the same depot list; the marks themselves
  // ride along in the checkpoint's vertex section.
  util::SplitMix64 rng(31);
  std::vector<Vertex> depots;
  for (int d = 0; d < 6; ++d) {
    Vertex v = static_cast<Vertex>(rng.next(n));
    depots.push_back(v);
    if (!recovered) net.set_mark(v, true);
  }

  util::Timer timer;
  long long checksum = 0;
  size_t closures = 0, reopenings = 0, saves = 0;
  std::vector<Edge> closed;
  for (int hour = 0; hour < 24; ++hour) {
    // Query burst: 2000 dispatch lookups against the spanning forest.
    for (int q = 0; q < 2000; ++q) {
      Vertex at = static_cast<Vertex>(rng.next(n));
      checksum += net.forest().nearest_marked_distance(at);
    }
    // Planning queries once per hour.
    checksum += net.forest().component_diameter(0);
    checksum += net.forest().component_center(0);
    checksum += net.forest().component_median(0);
    // Roadworks: close 20 random segments; rerouting over parallel roads is
    // the subsystem's replacement-edge search. Reopen a few older closures.
    for (int c = 0; c < 20 && !roads.empty(); ++c) {
      const Edge& e = roads[rng.next(roads.size())];
      if (net.erase(e.u, e.v)) {
        closed.push_back(e);
        ++closures;
      }
    }
    while (closed.size() > 60) {  // crews finish oldest roadworks
      Edge e = closed.front();
      closed.erase(closed.begin());
      net.insert(e.u, e.v, e.w);
      ++reopenings;
    }
    // End-of-shift checkpoint: durable (temp + fsync + rename), so a crash
    // at any point leaves the previous shift's snapshot loadable.
    if (!ckpt.empty() && (hour + 1) % 6 == 0) {
      recovery::RecoveryError e = net.save_checkpoint(ckpt);
      if (e != recovery::RecoveryError::kNone) {
        std::fprintf(stderr, "checkpoint to %s failed: %s\n", ckpt.c_str(),
                     recovery::to_string(e));
        return 2;
      }
      ++saves;
    }
  }
  double secs = timer.elapsed();

  std::printf("grid %zux%zu (n=%zu): 24 hours simulated in %.3fs\n", side,
              side, n, secs);
  std::printf("  48000 nearest-depot queries, 72 planning queries, %zu road "
              "closures, %zu reopenings\n",
              closures, reopenings);
  if (!ckpt.empty())
    std::printf("  %zu checkpoints published to %s\n", saves, ckpt.c_str());
  std::printf("  %zu components at close of day, checksum %lld\n",
              net.num_components(), checksum);

  // Sanity: distances at the depots themselves are zero.
  for (Vertex d : depots)
    if (net.forest().nearest_marked_distance(d) != 0) {
      std::fprintf(stderr, "depot %u misreported\n", d);
      return 1;
    }
  std::printf("  all %zu depots report distance 0 - OK\n", depots.size());
  return 0;
}
