// Schedule validators.
//
// Every compiled schedule is checked against the collective's contract
// before it is simulated or executed:
//   * completeness — every shard B_{s,d} arrives at d exactly once
//     (chunk intervals tile [0,1) with no overlap);
//   * causality — an intermediate node forwards a chunk only at a step
//     strictly after it received it, and the chunk's hop sequence is a
//     connected path from src to dst;
//   * locality — every hop is a fabric edge.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

class DemandMatrix;  // collectives/demand.hpp

struct ValidationResult {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
};

/// Validates a link schedule for the all-to-all collective over the given
/// terminals (all nodes for plain fabrics; hosts for augmented graphs).
/// With a `demand`, commodity (s,d) must tile [0, w) contiguously, where
/// w = demand(s,d) up to `demand_tol` (the chunking grid snaps w onto
/// k/max_denominator, so the delivered total can differ from the real-valued
/// weight by up to half a grid cell — 1/48 ~ 0.021 at the default
/// max_denominator 24, hence the default tolerance). Zero-weight commodities
/// must have NO chunks. nullptr demand is the exact unit check.
[[nodiscard]] ValidationResult validate_link_schedule(
    const DiGraph& g, const LinkSchedule& schedule,
    const std::vector<NodeId>& terminals,
    const DemandMatrix* demand = nullptr, double demand_tol = 2.2e-2);

/// Validates a path schedule: every commodity's route weights tile the unit
/// shard, chunk counts are consistent with the chunk unit, and every route
/// is a valid src->dst path. With a `demand`, commodity (s,d) route weights
/// must sum to demand(s,d) within `demand_tol` (half a chunking grid cell at
/// the defaults — see validate_link_schedule), its chunk count must equal
/// round(weight_sum / chunk_unit), and zero-weight commodities must have NO
/// routes. nullptr demand is the exact unit check.
[[nodiscard]] ValidationResult validate_path_schedule(
    const DiGraph& g, const PathSchedule& schedule,
    const std::vector<NodeId>& terminals,
    const DemandMatrix* demand = nullptr, double demand_tol = 2.2e-2);

}  // namespace a2a
