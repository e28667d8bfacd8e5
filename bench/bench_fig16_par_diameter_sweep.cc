// Figure 16 (Appendix D.3): batch-update diameter sweep. As alpha grows the
// zipf-tree diameter falls; batch UFO trees should speed up while the
// others stay flat or degrade (ternarization).
#include "bench/common.h"
#include "graph/generators.h"
#include "seq/ett_skiplist.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 5000 : 50000);
  size_t k = opt.batch ? opt.batch : std::max<size_t>(1, n / 10);
  std::printf("[fig16] batch-update diameter sweep, n=%zu, k=%zu\n", n, k);
  print_header("zipf sweep", "alpha",
               {"diam", "ETT-Skip", "UFO", "Topology"});
  for (double alpha : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    EdgeList edges = gen::zipf_tree(n, alpha, 88);
    std::printf("%-26.2f %12zu", alpha, gen::forest_diameter(n, edges));
    print_cell(batch_build_destroy_seconds<seq::EttSkipList>(n, edges, k, 6));
    print_cell(batch_build_destroy_seconds<seq::UfoTree>(n, edges, k, 6));
    print_cell(build_destroy_seconds<seq::Ternarizer<seq::TopologyTree>>(
        n, edges, 6));
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
