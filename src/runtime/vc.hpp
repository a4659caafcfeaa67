// Deadlock-free virtual-channel (layer) assignment — §5.5.
//
// Wormhole fabrics deadlock when routes create a cyclic channel-dependency
// graph (CDG). Following the paper we implement LASH [49] — greedily place
// each route into the lowest layer whose CDG stays acyclic — plus the
// LASH-sequential variant (routes processed shortest-first), and a
// DF-SSSP-style ordering. The paper's finding, reproduced by
// bench_vc_layers: LASH-sequential needs <= 4 layers across all schedule
// algorithms and topologies evaluated.
//
// A layer's CDG is acyclic before each route is tried, so each new arc a->b
// of the route is checked by one DFS from b; if it reaches a, the route is
// rolled back (incremental cycle detection, Pearce & Kelly, ACM JEA 2006).
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "graph/paths.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

enum class VcOrdering {
  kInputOrder,      ///< plain LASH
  kShortestFirst,   ///< LASH-sequential
  kSourceGrouped,   ///< DF-SSSP-style: group by source, then length
};

struct VcAssignment {
  std::vector<int> layer;  ///< per route.
  int num_layers = 0;
};

/// Assigns every route a layer such that each layer's CDG is acyclic.
[[nodiscard]] VcAssignment assign_layers(const DiGraph& g,
                                         const std::vector<Path>& routes,
                                         VcOrdering ordering = VcOrdering::kShortestFirst);

/// Convenience: assigns layers to a PathSchedule in place and returns the
/// layer count.
int assign_layers(const DiGraph& g, PathSchedule& schedule,
                  VcOrdering ordering = VcOrdering::kShortestFirst);

/// True iff the channel-dependency graph induced by the routes (all in one
/// layer) is acyclic — i.e. the routes are deadlock-free without VCs.
[[nodiscard]] bool cdg_is_acyclic(const DiGraph& g,
                                  const std::vector<Path>& routes);

}  // namespace a2a
