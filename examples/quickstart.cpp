// Quickstart: build a UFO tree, run updates and every query family, then
// checkpoint it and load the checkpoint into a fresh forest.
//
//   ./examples/quickstart
#include <cstdio>
#include <filesystem>
#include <string>

#include "parallel/par_ufo_tree.h"
#include "recovery/snapshot.h"

using namespace ufo;

int main() {
  // A forest on 8 vertices. UFO trees accept any vertex degree directly —
  // no ternarization step. par::UfoTree is the recommended backend: single
  // updates and queries as below, batches on the fork-join pool.
  par::UfoTree forest(8);

  // Build a small weighted tree: hub 0 with children 1, 2, 3, and a
  // chain 2 - 4 - 5 - 6 hanging below child 2.
  forest.link(0, 1, 3);
  forest.link(0, 2, 1);
  forest.link(0, 3, 7);
  forest.link(2, 4, 2);
  forest.link(4, 5, 5);
  forest.link(5, 6, 4);

  std::printf("connected(1, 6)      = %s\n",
              forest.connected(1, 6) ? "yes" : "no");
  std::printf("connected(1, 7)      = %s\n",
              forest.connected(1, 7) ? "yes" : "no");
  std::printf("path_sum(1, 6)       = %lld\n",
              static_cast<long long>(forest.path_sum(1, 6)));
  std::printf("path_max(1, 6)       = %lld (heaviest edge)\n",
              static_cast<long long>(forest.path_max(1, 6)));
  std::printf("path_length(1, 6)    = %lld hops\n",
              static_cast<long long>(forest.path_length(1, 6)));

  // Subtree queries are relative to an edge orientation.
  forest.set_vertex_weight(5, 10);
  forest.set_vertex_weight(6, 20);
  std::printf("subtree_sum(4 | parent 2) = %lld\n",
              static_cast<long long>(forest.subtree_sum(4, 2)));

  // Non-local queries.
  std::printf("lca(1, 6, root 3)    = %u\n", forest.lca(1, 6, 3));
  std::printf("diameter             = %lld\n",
              static_cast<long long>(forest.component_diameter(0)));
  std::printf("center               = %u\n", forest.component_center(0));
  forest.set_mark(6, true);
  std::printf("nearest mark from 1  = %lld hops\n",
              static_cast<long long>(forest.nearest_marked_distance(1)));

  // Dynamic restructuring: move the chain 4-5-6 under vertex 3.
  forest.cut(2, 4);
  forest.link(3, 4, 1);
  std::printf("after move: path_length(1, 6) = %lld hops\n",
              static_cast<long long>(forest.path_length(1, 6)));

  // Batch-dynamic interface (Section 5 of the paper).
  forest.batch_cut({{0, 1, 3}, {0, 2, 1}});
  forest.batch_link({{1, 2, 1}, {2, 7, 1}});
  std::printf("after batch: connected(1, 7) = %s\n",
              forest.connected(1, 7) ? "yes" : "no");

  // Persistence: a durable checkpoint, a header-only peek for the vertex
  // count, and a verified load into a fresh forest of that size.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ufo_quickstart.snap")
          .string();
  recovery::RecoveryError err = recovery::ForestSerializer::save(forest, path);
  recovery::SnapshotInfo info;
  if (err == recovery::RecoveryError::kNone)
    err = recovery::ForestSerializer::peek(path, &info);
  if (err != recovery::RecoveryError::kNone) {
    std::fprintf(stderr, "checkpoint failed: %s\n", recovery::to_string(err));
    return 1;
  }
  par::UfoTree fresh(info.n);
  recovery::LoadStats stats;
  err = recovery::ForestSerializer::load(fresh, path, {}, &stats);
  std::filesystem::remove(path);
  if (err != recovery::RecoveryError::kNone) {
    std::fprintf(stderr, "load failed: %s\n", recovery::to_string(err));
    return 1;
  }
  std::printf("reloaded %llu vertices: connected(1, 7) = %s, "
              "path_length(0, 6) = %lld hops\n",
              static_cast<unsigned long long>(info.n),
              fresh.connected(1, 7) ? "yes" : "no",
              static_cast<long long>(fresh.path_length(0, 6)));
  return 0;
}
