// Figure 5: sequential update speed. Total time to insert all n-1 edges and
// then delete them (both in random order), per structure per input, on the
// synthetic suite and the real-world stand-in forests.
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

void run_input(const gen::NamedInput& input) {
  std::printf("%-26s", input.name.c_str());
  print_cell(build_destroy_seconds<seq::LinkCutTree>(input.n, input.edges, 1));
  print_cell(build_destroy_seconds<seq::UfoTree>(input.n, input.edges, 1));
  print_cell(build_destroy_seconds<seq::SplayTopTree>(input.n, input.edges, 1));
  print_cell(build_destroy_seconds<seq::EttTreap>(input.n, input.edges, 1));
  print_cell(build_destroy_seconds<seq::EttSplay>(input.n, input.edges, 1));
  print_cell(
      build_destroy_seconds<seq::EttSkipList>(input.n, input.edges, 1));
  print_cell(build_destroy_seconds<seq::Ternarizer<seq::TopologyTree>>(
      input.n, input.edges, 1));
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 2000 : 30000);
  std::printf("[fig5] sequential update speed, n=%zu "
              "(insert all + delete all, seconds)\n", n);
  print_header("synthetic trees", "input",
               {"LinkCut", "UFO", "SplayTop", "ETT-Treap", "ETT-Splay",
                "ETT-Skip", "Topology"});
  for (const auto& input : gen::synthetic_suite(n, 12)) run_input(input);

  print_header("real-world stand-ins (BFS/RIS forests)", "input",
               {"LinkCut", "UFO", "SplayTop", "ETT-Treap", "ETT-Splay",
                "ETT-Skip", "Topology"});
  for (const auto& input : gen::realworld_suite(n, 12)) run_input(input);
  return 0;
}
