// Figure 7: memory usage after building a full n-vertex tree, per structure
// per synthetic input (bytes, from each structure's own accounting).
// "UFO" keeps every aggregate (Aggregates::kAll); "UFO-size" is the same
// tree keeping component sizes only (Aggregates::kSize), the tier that
// GraphConnectivity's spanning forest uses.
#include "bench/common.h"
#include "graph/generators.h"
#include "seq/ett_skiplist.h"
#include "seq/ett_splay.h"
#include "seq/ett_treap.h"
#include "seq/link_cut_tree.h"
#include "seq/splay_top_tree.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

template <class Tree, class... Args>
double built_mbytes(size_t n, const EdgeList& edges, Args... args) {
  Tree t(n, args...);
  for (const Edge& e : edges) t.link(e.u, e.v, e.w);
  return static_cast<double>(t.memory_bytes()) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 2000 : 30000);
  std::printf("[fig7] memory after full build, n=%zu (MiB)\n", n);
  print_header("synthetic trees", "input",
               {"LinkCut", "UFO", "UFO-size", "SplayTop", "ETT-Treap",
                "ETT-Splay", "ETT-Skip", "Topology"});
  for (const auto& input : gen::synthetic_suite(n, 12)) {
    std::printf("%-26s", input.name.c_str());
    print_cell(built_mbytes<seq::LinkCutTree>(input.n, input.edges));
    print_cell(built_mbytes<seq::UfoTree>(input.n, input.edges));
    print_cell(built_mbytes<seq::UfoTree>(input.n, input.edges,
                                          core::Aggregates::kSize));
    print_cell(built_mbytes<seq::SplayTopTree>(input.n, input.edges));
    print_cell(built_mbytes<seq::EttTreap>(input.n, input.edges));
    print_cell(built_mbytes<seq::EttSplay>(input.n, input.edges));
    print_cell(built_mbytes<seq::EttSkipList>(input.n, input.edges));
    print_cell(built_mbytes<seq::Ternarizer<seq::TopologyTree>>(input.n,
                                                                input.edges));
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
