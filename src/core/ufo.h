// Umbrella header: include this to get the whole library.
//
// Every backend is used directly through its own type; the capability
// concepts in core/capabilities.h say what each one supports:
//
//   par::UfoTree          — recommended: the paper's UFO tree with parallel
//                           batch-dynamic updates (Section 5), full query
//                           suite, O(min{log n, D}) updates
//   seq::UfoTree          — the same structure and queries, sequential
//   seq::Ternarizer<seq::TopologyTree>
//                         — topology tree behind the dynamic ternarizer
//                           (arbitrary degree; path + subtree queries)
//   seq::LinkCutTree      — fastest sequential updates; connectivity + path
//   seq::SplayTopTree     — self-adjusting; path + subtree queries
//
//   UfoConnectivity       — general-graph connectivity over par::UfoTree
//                           (spanning forest + non-tree edge store;
//                           src/connectivity/; the forest keeps component
//                           sizes only unless constructed with
//                           core::Aggregates::kAll)
#pragma once

#include "connectivity/connectivity.h"
#include "core/capabilities.h"
#include "graph/forest.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "seq/link_cut_tree.h"
#include "seq/splay_top_tree.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

namespace ufo {

using UfoConnectivity = conn::GraphConnectivity<par::UfoTree>;

// Both UFO backends carry the full Table 1 capability row (the queries are
// shared code).
static_assert(core::FullDynamicTree<seq::UfoTree>);
static_assert(core::BatchDynamic<seq::UfoTree>);
static_assert(core::FullDynamicTree<par::UfoTree>);
static_assert(core::BatchDynamic<par::UfoTree>);
static_assert(core::GraphConnectivity<UfoConnectivity>);

}  // namespace ufo
