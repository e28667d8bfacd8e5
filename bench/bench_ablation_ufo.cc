// Ablations for design choices called out in DESIGN.md:
//  (a) core::SortedBag (the rake index the core runs, standing in for
//      Section 4.2's rank trees) vs. linear rescan for maintaining a
//      non-invertible aggregate (max) over the children of a high-fanout
//      cluster under rake deletions;
//  (b) UFO high-degree merges vs. ternarization on star builds — the merge
//      rule that gives UFO trees their O(min{log n, D}) height.
#include <algorithm>

#include "bench/common.h"
#include "core/sorted_bag.h"
#include "graph/generators.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

using namespace ufo;
using namespace ufo::bench;

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t fanout = opt.n ? opt.n : (opt.quick ? 20000 : 200000);

  std::printf("[ablation a] non-invertible child aggregate under deletions, "
              "fanout k=%zu\n", fanout);
  util::SplitMix64 rng(3);
  std::vector<Weight> values(fanout);
  for (auto& v : values) v = static_cast<Weight>(rng.next(1u << 20));
  {
    // Linear rescan: delete children one by one, recomputing max each time.
    std::vector<Weight> live = values;
    util::Timer timer;
    Weight sink = 0;
    // Cap the quadratic baseline so the binary stays fast; extrapolate.
    size_t deletions = std::min<size_t>(fanout, 4000);
    for (size_t i = 0; i < deletions; ++i) {
      live[i] = INT64_MIN;
      sink ^= *std::max_element(live.begin(), live.end());
    }
    double per_op = timer.elapsed() / deletions;
    std::printf("  linear rescan : %10.2f us/delete (O(k) each)%s\n",
                per_op * 1e6, sink == 42 ? "!" : "");
  }
  {
    core::SortedBag bag;
    for (Weight v : values) bag.insert(v);
    util::Timer timer;
    Weight sink = 0;
    for (Weight v : values) {
      bag.erase_one(v);
      if (!bag.empty()) sink ^= bag.max();
    }
    double per_op = timer.elapsed() / fanout;
    std::printf("  sorted bag    : %10.2f us/delete (O(log k) each)%s\n",
                per_op * 1e6, sink == 42 ? "!" : "");
  }

  std::printf("\n[ablation b] star build+destroy: UFO high-degree merges vs "
              "ternarized contraction\n");
  print_header("star", "n", {"UFO", "Topology"});
  for (size_t n = 10000; n <= fanout; n *= 4) {
    EdgeList e = gen::star(n);
    std::printf("%-26zu", n);
    print_cell(build_destroy_seconds<seq::UfoTree>(n, e, 7));
    print_cell(
        build_destroy_seconds<seq::Ternarizer<seq::TopologyTree>>(n, e, 7));
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
