// Top-level toolchain API — the Fig. 1 decision flow.
//
// generate_schedule(topology, fabric) produces a ready-to-lower all-to-all
// schedule:
//   * no NIC forwarding            -> link-based schedule (tsMCF semantics):
//       - host-to-NIC bottleneck?  -> Fig. 2 augmentation first
//       - small fabric             -> exact tsMCF LP
//       - otherwise                -> decomposed rate MCF + pipelined unroll
//   * NIC forwarding, low path diversity  -> pMCF on disjoint paths
//   * NIC forwarding, high path diversity -> decomposed MCF + widest-path
//     extraction (MCF-extP), with LASH-sequential VC layers assigned.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "collectives/collective.hpp"
#include "graph/digraph.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/fabric.hpp"
#include "schedule/chunking.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

class ScheduleCache;

enum class ScheduleKind { kLinkTsMcf, kLinkUnrolled, kPathPMcf, kPathExtracted };

struct ToolchainOptions {
  /// Max nodes for which the exact tsMCF LP is attempted. Raised from 10
  /// when the sparse revised simplex replaced the dense solver: GenKautz
  /// N=14 (d=4) tsMCF now solves in ~4s where the dense solver needed that
  /// for N=10 (see BENCH_lp.json).
  int exact_tsmcf_limit = 14;
  /// Fig. 1 "#(s,d) paths large?" threshold: bounded-length path count per
  /// pair above which pMCF is abandoned for MCF-extP.
  long long path_diversity_threshold = 512;
  DecomposedOptions mcf;
  /// §4 chunking for the generated schedule. The default grid (1/24 of a
  /// shard) caps chunks-per-shard — and hence QPs (§5.5) — at counts real
  /// fabrics tolerate, at ≲2% weight-rounding cost; raise max_denominator
  /// for finer fidelity.
  ChunkingOptions chunking{.max_denominator = 24, .min_fraction = 1e-3};
  int vc_max_layers_warn = 4;
  /// Which collective over which demand shape to synthesize. The default
  /// (uniform all-to-all) is the historical behavior; it is elided from
  /// fingerprints so pre-existing cache entries stay valid.
  WorkloadSpec workload{};
};

struct GeneratedSchedule {
  ScheduleKind kind = ScheduleKind::kLinkUnrolled;
  std::optional<LinkSchedule> link;
  std::optional<PathSchedule> path;
  /// The concurrent rate F the schedule was built for; (N-1)*F*b is the
  /// throughput upper bound of §5.2.
  double concurrent_flow = 0.0;
  /// VC layers used (path schedules only).
  int vc_layers = 0;
  /// Terminal ranks (hosts when the Fig. 2 augmentation was applied).
  std::vector<NodeId> terminals;
  /// The graph the schedule addresses (the augmented graph when applicable).
  DiGraph schedule_graph;
  std::string notes;
  /// True when the result was served from a ScheduleCache tier instead of
  /// the LP/MCF pipeline.
  bool from_cache = false;
};

/// End-to-end schedule generation per Fig. 1.
[[nodiscard]] GeneratedSchedule generate_schedule(const DiGraph& topology,
                                                  const Fabric& fabric,
                                                  const ToolchainOptions& options = {});

/// The synthesis half of the fingerprint-first split the service layers
/// build on: runs the Fig. 1 pipeline unconditionally, never consulting a
/// cache. generate_schedule(topology, fabric, options) is this function;
/// the name exists so call sites that already hold a fingerprint (the
/// ScheduleBroker's coalesced miss path) say what they mean.
[[nodiscard]] GeneratedSchedule synthesize_schedule(const DiGraph& topology,
                                                    const Fabric& fabric,
                                                    const ToolchainOptions& options = {});

/// Cache-aware variant, a thin composition of the fingerprint-first split:
/// schedule_fingerprint() -> ScheduleCache::lookup() -> on miss,
/// synthesize_schedule() + ScheduleCache::insert(). With a null cache this
/// is identical to the three-argument overload.
[[nodiscard]] GeneratedSchedule generate_schedule(const DiGraph& topology,
                                                  const Fabric& fabric,
                                                  const ToolchainOptions& options,
                                                  ScheduleCache* cache);

/// Number of times the LP/MCF pipeline actually ran in this process (cache
/// hits do not count). Monotone; used by tests to assert cache bypass.
[[nodiscard]] std::uint64_t pipeline_invocations();

/// Estimates whether the topology's path diversity is "large" (Fig. 1):
/// maximum bounded-length path count over a sample of pairs.
[[nodiscard]] long long estimate_path_diversity(const DiGraph& g, int samples = 16);

}  // namespace a2a
