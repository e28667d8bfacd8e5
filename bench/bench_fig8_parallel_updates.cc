// Figure 8: batch-dynamic update speed with fixed batch size k. Inserts all
// edges in batches, then deletes them in batches. Structures: the batch ETT
// (skip list) baseline, batch UFO trees (sequential and the parallel
// level-synchronous backend), and batch topology trees (the latter on
// degree-3-capable inputs directly, via per-edge ternarized application
// otherwise — see EXPERIMENTS.md).
//
// This is the figure the parallel backend exists for: the "UFO-par" column
// runs par::UfoTree on the fork-join pool, whose width is printed in the
// header (pin it with UFOTREE_NUM_THREADS for comparable runs).
#include <cstdlib>

#include "bench/common.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/scheduler.h"
#include "seq/ett_skiplist.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

// Ternarized structures lack a native batch interface; their "batch" is the
// grouped sequence of single updates (this is the overhead the paper
// attributes to ternarization in the batch setting).
template <class Tree>
double tern_batch_seconds(size_t n, const EdgeList& edges, size_t k,
                          uint64_t seed) {
  (void)k;
  return build_destroy_seconds<Tree>(n, edges, seed);
}

void run_input(const gen::NamedInput& input, size_t k) {
  std::printf("%-26s", input.name.c_str());
  print_cell(batch_build_destroy_seconds<seq::EttSkipList>(input.n,
                                                           input.edges, k, 4));
  print_cell(
      batch_build_destroy_seconds<seq::UfoTree>(input.n, input.edges, k, 4));
  print_cell(
      batch_build_destroy_seconds<par::UfoTree>(input.n, input.edges, k, 4));
  print_cell(tern_batch_seconds<seq::Ternarizer<seq::TopologyTree>>(
      input.n, input.edges, k, 4));
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 5000 : 50000);
  size_t k = opt.batch ? opt.batch : std::max<size_t>(1, n / 10);
  const char* pin = std::getenv("UFOTREE_NUM_THREADS");
  std::printf(
      "[fig8] batch-dynamic update speed, n=%zu, k=%zu (seconds); "
      "workers=%d (UFOTREE_NUM_THREADS=%s)\n",
      n, k, par::num_workers(), pin ? pin : "unset");
  print_header("synthetic trees", "input",
               {"ETT-Skip", "UFO-seq", "UFO-par", "Topology"});
  for (const auto& input : gen::synthetic_suite(n, 12)) run_input(input, k);
  print_header("real-world stand-ins", "input",
               {"ETT-Skip", "UFO-seq", "UFO-par", "Topology"});
  for (const auto& input : gen::realworld_suite(n, 12)) run_input(input, k);
  return 0;
}
