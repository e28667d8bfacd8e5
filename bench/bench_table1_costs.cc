// Table 1 (empirical validation): the paper's cost matrix says UFO trees and
// link-cut trees run in O(min{log n, D}) / O(min{log n, D^2}) while the
// others are Theta(log n) regardless of diameter. We validate the *shape*:
// per-operation time on a path (D = n) must grow with n, while on a star
// (D = 2) it must stay flat for UFO/LCT but not for the ternarized
// structures. Also prints each structure's supported-query matrix.
#include "bench/common.h"
#include "graph/generators.h"
#include "seq/ett_skiplist.h"
#include "seq/link_cut_tree.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

template <class Tree>
double ns_per_update(size_t n, const EdgeList& edges) {
  double s = build_destroy_seconds<Tree>(n, edges, 9);
  return s / (2.0 * edges.size()) * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t max_n = opt.n ? opt.n : (opt.quick ? 10000 : 90000);

  std::printf("[table1] supported queries\n");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "structure", "conn",
              "path", "subtree", "LCA", "diam", "ctr/med/nm");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "LinkCut", "yes", "yes",
              "no", "no", "no", "no");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "ETT", "yes", "no", "yes",
              "no", "no", "no");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "Topology", "yes", "yes",
              "yes", "yes", "yes", "yes");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "RC", "yes", "yes", "yes",
              "yes", "yes", "yes");
  std::printf("%-14s %6s %6s %8s %6s %6s %10s\n", "UFO", "yes", "yes", "yes",
              "yes", "yes", "yes");

  std::printf("\n[table1] ns/update on PATH inputs (D = n; all structures "
              "should grow ~log n)\n");
  print_header("path", "n", {"LinkCut", "UFO", "ETT-Skip", "Topology"});
  for (size_t n = 10000; n <= max_n; n *= 3) {
    EdgeList e = gen::path(n);
    std::printf("%-26zu", n);
    print_cell(ns_per_update<seq::LinkCutTree>(n, e));
    print_cell(ns_per_update<seq::UfoTree>(n, e));
    print_cell(ns_per_update<seq::EttSkipList>(n, e));
    print_cell(ns_per_update<seq::Ternarizer<seq::TopologyTree>>(n, e));
    std::printf("   (ns/op)\n");
  }

  std::printf("\n[table1] ns/update on STAR inputs (D = 2; UFO and LinkCut "
              "should stay flat, others grow)\n");
  print_header("star", "n", {"LinkCut", "UFO", "ETT-Skip", "Topology"});
  for (size_t n = 10000; n <= max_n; n *= 3) {
    EdgeList e = gen::star(n);
    std::printf("%-26zu", n);
    print_cell(ns_per_update<seq::LinkCutTree>(n, e));
    print_cell(ns_per_update<seq::UfoTree>(n, e));
    print_cell(ns_per_update<seq::EttSkipList>(n, e));
    print_cell(ns_per_update<seq::Ternarizer<seq::TopologyTree>>(n, e));
    std::printf("   (ns/op)\n");
  }
  return 0;
}
