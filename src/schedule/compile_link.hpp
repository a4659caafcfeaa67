// Link-schedule compilation — §4 "Link-based Schedules".
//
// Two producers:
//  * compile_tsmcf_schedule: lowers an exact tsMCF LP solution. The LP gives
//    per-(commodity, edge, step) fractions; we decompose each commodity's
//    space-time flow into space-time paths (FIFO-matching receives to sends
//    at every node, which the cumulative constraints of eq. 17 make
//    feasible), chunk the path weights, and emit (C, (u,w), t) transfers.
//  * unroll_rate_schedule: the scalable pipeline for fabrics too large for
//    the tsMCF LP — takes the weighted paths of a rate-MCF solution and
//    list-schedules every chunk hop onto the earliest step where its link
//    has a free slot, producing a pipelined schedule whose steady-state
//    throughput matches the fluid optimum.
#pragma once

#include <vector>

#include "mcf/extraction.hpp"
#include "mcf/timestepped.hpp"
#include "schedule/chunking.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

/// Weighted routes of one commodity (input to the unroller). `demand` is
/// the commodity's shard multiple: its chunks tile [0, snap_demand(demand))
/// instead of [0, 1), so a weight-3 commodity moves 3x the chunks of a
/// weight-1 commodity at the same chunk unit.
struct CommodityPaths {
  NodeId src = -1;
  NodeId dst = -1;
  std::vector<WeightedPath> paths;
  double demand = 1.0;
};

/// Exact lowering of a tsMCF solution to a LinkSchedule. With a non-null
/// `demand`, commodity k's chunks tile [0, snap_demand(w_k)); zero-weight
/// commodities carry no flow in the tsMCF solution and emit no transfers.
[[nodiscard]] LinkSchedule compile_tsmcf_schedule(const DiGraph& g,
                                                  const TsMcfSolution& ts,
                                                  const ChunkingOptions& options = {},
                                                  const DemandMatrix* demand = nullptr);

struct UnrollOptions {
  ChunkingOptions chunking;
  /// Chunk slots per link per step. 1 keeps steps light (lowest sync cost
  /// per byte at large buffers); higher values shorten the schedule.
  int slots_per_link = 1;
};

/// Scalable pipelined lowering of weighted rate-MCF paths. Every commodity
/// is cut into equal chunks at one global unit, and chunks are placed round
/// robin across commodities, hop by hop along their paths. Each hop takes
/// the earliest step after its previous hop's step (step 1 for the first)
/// at which its edge still has a free slot; an edge has
/// max(1, round(capacity * slots_per_link)) slots per step. Full steps are
/// skipped through per-edge skip pointers, so the cost is about O(hops),
/// not the O(hops x full steps skipped) of a step-by-step scan.
[[nodiscard]] LinkSchedule unroll_rate_schedule(const DiGraph& g,
                                                const std::vector<CommodityPaths>& commodities,
                                                const UnrollOptions& options = {});

/// Extracts CommodityPaths from a per-commodity link-flow solution
/// (widest-path extraction per commodity, §3.2.1). With a non-null `demand`,
/// commodity k's extraction target is w_k · F, its CommodityPaths carries
/// demand = w_k, and zero-weight commodities are omitted from the result.
[[nodiscard]] std::vector<CommodityPaths> paths_from_link_flows(
    const DiGraph& g, const LinkFlowSolution& flows,
    const DemandMatrix* demand = nullptr);

}  // namespace a2a
