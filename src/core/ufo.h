// Umbrella header: include this to get the whole library.
//
//   UfoForest        — UFO tree backend (the paper's contribution; default
//                      choice: full query suite, batch-dynamic,
//                      O(min{log n, D}) updates)
//   TopologyForest   — topology-tree backend behind the dynamic ternarizer
//                      (accepts arbitrary degree)
//   LinkCutForest    — link-cut backend (fastest sequential updates;
//                      connectivity + path queries only)
//   SplayTopForest   — splay top tree backend (self-adjusting; path +
//                      subtree queries)
//   ParUfoForest     — parallel batch-dynamic UFO tree backend (Section 5;
//                      level-synchronous batch updates on the fork-join
//                      runtime, same query suite as UfoForest)
//   UfoConnectivity  — general-graph connectivity (spanning forest over the
//                      UFO tree + non-tree edge store; src/connectivity/;
//                      the forest keeps component sizes only unless
//                      constructed with core::Aggregates::kAll)
//   ParUfoConnectivity — the same subsystem over the parallel backend
#pragma once

#include "connectivity/connectivity.h"
#include "core/capabilities.h"
#include "core/dynamic_forest.h"
#include "graph/forest.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "seq/link_cut_tree.h"
#include "seq/splay_top_tree.h"
#include "seq/ternarize.h"
#include "seq/topology_tree.h"
#include "seq/ufo_tree.h"

namespace ufo {

using UfoForest = core::DynamicForest<seq::UfoTree>;
using TopologyForest = core::DynamicForest<seq::Ternarizer<seq::TopologyTree>>;
using LinkCutForest = core::DynamicForest<seq::LinkCutTree>;
using SplayTopForest = core::DynamicForest<seq::SplayTopTree>;
using ParUfoForest = core::DynamicForest<par::UfoTree>;
using UfoConnectivity = conn::GraphConnectivity<seq::UfoTree>;
using ParUfoConnectivity = conn::GraphConnectivity<par::UfoTree>;

// The headline structure carries the full Table 1 capability row.
static_assert(core::FullDynamicTree<seq::UfoTree>);
static_assert(core::BatchDynamic<seq::UfoTree>);
static_assert(core::GraphConnectivity<UfoConnectivity>);
// The parallel backend carries the same row (the queries are shared code).
static_assert(core::FullDynamicTree<par::UfoTree>);
static_assert(core::BatchDynamic<par::UfoTree>);
static_assert(core::GraphConnectivity<ParUfoConnectivity>);

}  // namespace ufo
