// Figure 6: diameter sweep. Zipf(alpha) trees get lower diameter as alpha
// grows; link-cut and UFO trees should speed up (their O(min{log n, D})
// bounds), while the other structures stay flat or degrade.
// Reports (a) total update time, (b) connectivity-query time, (c) path-query
// time, as in the paper's three subplots.
#include "bench/common.h"
#include "graph/generators.h"
#include "seq/ett_skiplist.h"
#include "seq/link_cut_tree.h"
#include "seq/splay_top_tree.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

int64_t g_sink = 0;  // defeats dead-code elimination

template <class Tree>
double conn_query_seconds(size_t n, const EdgeList& edges, size_t queries,
                          uint64_t seed) {
  Tree t(n);
  for (const Edge& e : edges) t.link(e.u, e.v, e.w);
  util::SplitMix64 rng(seed);
  util::Timer timer;
  for (size_t q = 0; q < queries; ++q) {
    Vertex a = static_cast<Vertex>(rng.next(n));
    Vertex b = static_cast<Vertex>(rng.next(n));
    g_sink += t.connected(a, b) ? 1 : 0;
  }
  return timer.elapsed();
}

template <class Tree>
double path_query_seconds(size_t n, const EdgeList& edges, size_t queries,
                          uint64_t seed) {
  Tree t(n);
  for (const Edge& e : edges) t.link(e.u, e.v, e.w);
  util::SplitMix64 rng(seed);
  util::Timer timer;
  for (size_t q = 0; q < queries; ++q) {
    Vertex a = static_cast<Vertex>(rng.next(n));
    Vertex b = static_cast<Vertex>(rng.next(n));
    if (a != b) g_sink += t.path_sum(a, b);
  }
  return timer.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  size_t n = opt.n ? opt.n : (opt.quick ? 2000 : 20000);
  size_t q = n;
  std::printf("[fig6] diameter sweep on zipf(alpha) trees, n=%zu, q=%zu\n", n,
              q);

  const std::vector<std::string> cols = {"diam",     "LinkCut",  "UFO",
                                         "SplayTop", "ETT-Skip", "Topology"};
  for (int part = 0; part < 3; ++part) {
    const char* titles[3] = {"(a) total update time",
                             "(b) connectivity queries",
                             "(c) path queries"};
    print_header(titles[part], "alpha", cols);
    for (double alpha : {0.0, 0.5, 1.0, 1.5, 2.0}) {
      EdgeList edges = gen::zipf_tree(n, alpha, 77);
      std::printf("%-26.2f %12zu", alpha, gen::forest_diameter(n, edges));
      if (part == 0) {
        print_cell(build_destroy_seconds<seq::LinkCutTree>(n, edges, 2));
        print_cell(build_destroy_seconds<seq::UfoTree>(n, edges, 2));
        print_cell(build_destroy_seconds<seq::SplayTopTree>(n, edges, 2));
        print_cell(build_destroy_seconds<seq::EttSkipList>(n, edges, 2));
        print_cell(build_destroy_seconds<seq::Ternarizer<seq::TopologyTree>>(
            n, edges, 2));
      } else if (part == 1) {
        print_cell(conn_query_seconds<seq::LinkCutTree>(n, edges, q, 3));
        print_cell(conn_query_seconds<seq::UfoTree>(n, edges, q, 3));
        print_cell(conn_query_seconds<seq::SplayTopTree>(n, edges, q, 3));
        print_cell(conn_query_seconds<seq::EttSkipList>(n, edges, q, 3));
        print_cell(conn_query_seconds<seq::Ternarizer<seq::TopologyTree>>(
            n, edges, q, 3));
      } else {
        print_cell(path_query_seconds<seq::LinkCutTree>(n, edges, q, 3));
        print_cell(path_query_seconds<seq::UfoTree>(n, edges, q, 3));
        print_cell(path_query_seconds<seq::SplayTopTree>(n, edges, q, 3));
        print_cell(-1);  // ETTs do not support path queries (Table 1)
        print_cell(path_query_seconds<seq::Ternarizer<seq::TopologyTree>>(
            n, edges, q, 3));
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  return 0;
}
