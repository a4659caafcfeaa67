#include "core/api.hpp"

#include <algorithm>
#include <atomic>

#include "core/schedule_cache.hpp"
#include "graph/algorithms.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "graph/augment.hpp"
#include "mcf/path_mcf.hpp"
#include "mcf/timestepped.hpp"
#include "runtime/vc.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"

namespace a2a {

namespace {
std::atomic<std::uint64_t> g_pipeline_invocations{0};
}  // namespace

std::uint64_t pipeline_invocations() {
  return g_pipeline_invocations.load(std::memory_order_relaxed);
}

long long estimate_path_diversity(const DiGraph& g, int samples) {
  const int lmax = diameter(g) + 2;
  constexpr long long kCap = 1'000'000;
  long long worst = 0;
  const int n = g.num_nodes();
  for (int i = 0; i < samples; ++i) {
    // Deterministic stratified sample of (s, d) pairs.
    const NodeId s = static_cast<NodeId>((static_cast<long long>(i) * 2654435761LL) % n);
    const NodeId d = static_cast<NodeId>((static_cast<long long>(i) * 40503LL + n / 2) % n);
    if (s == d) continue;
    worst = std::max(worst, count_bounded_paths(g, s, d, lmax, kCap));
    if (worst >= kCap) break;
  }
  return worst;
}

GeneratedSchedule generate_schedule(const DiGraph& topology,
                                    const Fabric& fabric,
                                    const ToolchainOptions& options,
                                    ScheduleCache* cache) {
  if (cache == nullptr) return synthesize_schedule(topology, fabric, options);
  const std::string fingerprint =
      schedule_fingerprint(topology, fabric, options);
  if (auto cached = cache->lookup(fingerprint)) {
    cached->from_cache = true;
    return std::move(*cached);
  }
  GeneratedSchedule result = synthesize_schedule(topology, fabric, options);
  cache->insert(fingerprint, result);
  return result;
}

GeneratedSchedule generate_schedule(const DiGraph& topology,
                                    const Fabric& fabric,
                                    const ToolchainOptions& options) {
  return synthesize_schedule(topology, fabric, options);
}

GeneratedSchedule synthesize_schedule(const DiGraph& topology,
                                      const Fabric& fabric,
                                      const ToolchainOptions& options) {
  g_pipeline_invocations.fetch_add(1, std::memory_order_relaxed);
  A2A_COUNTER("pipeline.runs").inc();
  // The decision-flow annotations on this span record which Fig. 1 branch
  // ran and why, so a trace answers "what did the toolchain decide" without
  // reading this function.
  obs::TraceSpan pipeline_span("pipeline.generate_schedule");
  GeneratedSchedule out;
  const int n = topology.num_nodes();
  const int degree = topology.max_out_degree();
  const double nic_bw = degree * fabric.link_GBps;

  // Non-default workloads lower to a demand matrix over the branch's
  // terminal set (the hosts after augmentation); the default stays on the
  // nullptr fast path so the uniform pipeline is untouched byte-for-byte.
  std::optional<DemandMatrix> demand_storage;
  const auto resolve_demand =
      [&](const std::vector<NodeId>& term) -> const DemandMatrix* {
    if (options.workload.is_default()) return nullptr;
    demand_storage =
        effective_demand(options.workload, static_cast<int>(term.size()));
    if (demand_storage->total() <= 0.0) {
      throw InvalidArgument("workload " + options.workload.to_string() +
                            " lowers to an all-zero demand matrix");
    }
    out.notes += "workload " + options.workload.to_string() + "; ";
    pipeline_span.annotate("workload=" + options.workload.to_string());
    return &*demand_storage;
  };

  if (!fabric.nic_forwarding) {
    // Link-based branch. Model the host bottleneck if injection < d*b.
    pipeline_span.annotate("branch=link (NICs cannot forward)");
    DiGraph graph = topology;
    std::vector<NodeId> terminals = all_nodes(topology);
    if (fabric.injection_GBps < nic_bw) {
      obs::TraceSpan augment_span(
          "stage.augment", "host-bottleneck: injection_GBps < degree*link_GBps");
      const AugmentedGraph aug = augment_host_bottleneck(
          topology, fabric.injection_GBps / fabric.link_GBps);
      graph = aug.graph;
      terminals.resize(static_cast<std::size_t>(aug.num_hosts));
      out.notes += "host-bottleneck augmentation applied; ";
    }
    const DemandMatrix* demand = resolve_demand(terminals);
    if (n <= options.exact_tsmcf_limit) {
      pipeline_span.annotate("solver=exact tsMCF (n <= exact_tsmcf_limit)");
      const int steps = diameter(graph) + 1;
      const TsMcfSolution ts = [&] {
        A2A_TRACE_SPAN("stage.solve", "exact tsMCF LP, " +
                                          std::to_string(steps) + " steps");
        return solve_tsmcf_exact(graph, steps, terminals, options.mcf.lp,
                                 demand);
      }();
      out.kind = ScheduleKind::kLinkTsMcf;
      out.link = [&] {
        A2A_TRACE_SPAN("stage.compile", "tsMCF link schedule");
        return compile_tsmcf_schedule(graph, ts, options.chunking, demand);
      }();
      out.concurrent_flow = 1.0 / ts.total_utilization;
      out.notes += "exact tsMCF LP";
    } else {
      pipeline_span.annotate("solver=decomposed MCF (n > exact_tsmcf_limit)");
      const LinkFlowSolution flows = [&] {
        A2A_TRACE_SPAN("stage.solve", "decomposed MCF");
        return solve_decomposed_mcf(graph, terminals, options.mcf, nullptr,
                                    nullptr, demand);
      }();
      const auto commodity_paths = [&] {
        A2A_TRACE_SPAN("stage.extract", "paths from link flows");
        return paths_from_link_flows(graph, flows, demand);
      }();
      UnrollOptions uo;
      uo.chunking = options.chunking;
      out.kind = ScheduleKind::kLinkUnrolled;
      out.link = [&] {
        A2A_TRACE_SPAN("stage.compile", "pipelined unroll");
        return unroll_rate_schedule(graph, commodity_paths, uo);
      }();
      out.concurrent_flow = flows.concurrent_flow;
      out.notes += "decomposed MCF + pipelined unroll";
    }
    out.terminals = terminals;
    out.schedule_graph = graph;
    return out;
  }

  // Path-based branch.
  pipeline_span.annotate("branch=path (NIC forwarding)");
  const std::vector<NodeId> terminals = all_nodes(topology);
  const DemandMatrix* demand = resolve_demand(terminals);
  const long long diversity = estimate_path_diversity(topology);
  PathSchedule schedule;
  if (diversity <= options.path_diversity_threshold) {
    pipeline_span.annotate("solver=pMCF (path diversity " +
                           std::to_string(diversity) + " <= threshold)");
    const PathSet candidates = [&] {
      A2A_TRACE_SPAN("stage.paths", "link-disjoint candidates");
      return build_disjoint_path_set(topology, terminals, demand);
    }();
    if (n <= options.mcf.exact_master_limit) {
      const PathMcfSolution sol = [&] {
        A2A_TRACE_SPAN("stage.solve", "exact pMCF LP");
        return solve_path_mcf_exact(topology, candidates, options.mcf.lp);
      }();
      schedule = [&] {
        A2A_TRACE_SPAN("stage.compile", "path schedule");
        return compile_path_schedule(topology, candidates, sol.weights,
                                     options.chunking);
      }();
      out.concurrent_flow = sol.concurrent_flow;
    } else {
      pipeline_span.annotate("pMCF master via Fleischer FPTAS (n > "
                             "exact_master_limit)");
      FleischerOptions fo = options.mcf.fptas;
      fo.epsilon = options.mcf.fptas_epsilon;
      const PathFlowSolution sol = [&] {
        A2A_TRACE_SPAN("stage.solve", "Fleischer FPTAS");
        return fleischer_paths(topology, candidates, fo);
      }();
      // A schedule cut short by a budget is never served: the fingerprint
      // does not carry the budget, so it would be cached as the schedule.
      if (sol.timed_out) throw SolverError("pMCF FPTAS failed: time-limit");
      schedule = [&] {
        A2A_TRACE_SPAN("stage.compile", "path schedule");
        return compile_path_schedule(topology, candidates, sol.weights,
                                     options.chunking);
      }();
      out.concurrent_flow = sol.concurrent_flow;
    }
    out.kind = ScheduleKind::kPathPMcf;
    out.notes += "pMCF on link-disjoint candidates";
  } else {
    pipeline_span.annotate("solver=MCF-extP (path diversity " +
                           std::to_string(diversity) + " > threshold)");
    const LinkFlowSolution flows = [&] {
      A2A_TRACE_SPAN("stage.solve", "decomposed MCF");
      return solve_decomposed_mcf(topology, terminals, options.mcf, nullptr,
                                  nullptr, demand);
    }();
    const auto commodity_paths = [&] {
      A2A_TRACE_SPAN("stage.extract", "widest-path extraction");
      return paths_from_link_flows(topology, flows, demand);
    }();
    schedule = [&] {
      A2A_TRACE_SPAN("stage.compile", "path schedule");
      return compile_path_schedule(topology, commodity_paths, options.chunking);
    }();
    out.concurrent_flow = flows.concurrent_flow;
    out.kind = ScheduleKind::kPathExtracted;
    out.notes += "decomposed MCF + widest-path extraction (MCF-extP)";
  }
  out.vc_layers = [&] {
    A2A_TRACE_SPAN("stage.vc", "LASH-sequential layers");
    return assign_layers(topology, schedule, VcOrdering::kShortestFirst);
  }();
  if (out.vc_layers > options.vc_max_layers_warn) {
    out.notes += "; WARNING: needs " + std::to_string(out.vc_layers) + " VC layers";
  }
  pipeline_span.annotate("vc_layers=" + std::to_string(out.vc_layers));
  out.path = std::move(schedule);
  out.terminals = terminals;
  out.schedule_graph = topology;
  return out;
}

}  // namespace a2a
