#include "mcf/decomposed.hpp"

#include <algorithm>
#include <chrono>

#include "collectives/demand.hpp"
#include "common/thread_pool.hpp"
#include "mcf/extraction.hpp"
#include "obs/trace.hpp"

namespace a2a {

LinkFlowSolution solve_decomposed_mcf(const DiGraph& g,
                                      const std::vector<NodeId>& terminals,
                                      const DecomposedOptions& options,
                                      DecomposedTiming* timing,
                                      LpBasis* /*master_warm*/,
                                      const DemandMatrix* demand) {
  const auto t0 = std::chrono::steady_clock::now();
  const int S = static_cast<int>(terminals.size());
  // The master: the exact LP up to exact_master_limit terminals, the FPTAS
  // beyond.
  const GroupedFlowSolution master = [&] {
    A2A_TRACE_SPAN("mcf.master", std::to_string(S) + " terminals");
    if (S <= options.exact_master_limit) {
      return solve_master_lp(g, terminals, options.lp, demand);
    }
    FleischerOptions fo = options.fptas;
    fo.epsilon = options.fptas_epsilon;
    GroupedFlowSolution approx = fleischer_grouped(g, terminals, fo, demand);
    if (approx.timed_out) {
      throw SolverError("decomposed MCF master FPTAS failed: time-limit");
    }
    return approx;
  }();
  const auto t1 = std::chrono::steady_clock::now();

  TerminalPairs pairs(terminals);
  LinkFlowSolution out;
  out.pairs = pairs;
  out.per_commodity.resize(static_cast<std::size_t>(pairs.count()));

  const double F = master.concurrent_flow;
  std::vector<double> weakest(static_cast<std::size_t>(S), F);

  // Silent sources (all-zero demand rows) ship nothing: no child problem.
  std::vector<bool> silent(static_cast<std::size_t>(S), false);
  if (demand != nullptr) {
    for (int si = 0; si < S; ++si) {
      silent[static_cast<std::size_t>(si)] = demand->row_sum(si) <= 0.0;
    }
  }

  ThreadPool::shared().parallel_for(static_cast<std::size_t>(S), [&](std::size_t si) {
    if (silent[si]) return;
    // Child solves run on pool workers; the span carries the worker's
    // thread id, so traces show how the children spread across the pool.
    A2A_TRACE_SPAN("mcf.child", "source " + std::to_string(si));
    const NodeId src = terminals[si];
    std::vector<NodeId> sinks;
    std::vector<int> sink_terminal_index;
    std::vector<double> sink_weight;
    for (int di = 0; di < S; ++di) {
      if (di == static_cast<int>(si)) continue;
      const double w =
          demand == nullptr ? 1.0 : demand->at(static_cast<int>(si), di);
      if (w <= 0.0) continue;  // zero-weight sinks need no flow
      sinks.push_back(terminals[static_cast<std::size_t>(di)]);
      sink_terminal_index.push_back(di);
      sink_weight.push_back(w);
    }
    if (sinks.empty()) return;
    // Combinatorial splitter: max-flow within the master's per-source flow,
    // sink-capped at w(s,d)·F, then flow decomposition.
    std::vector<double> sink_caps(sinks.size());
    for (std::size_t k = 0; k < sinks.size(); ++k) sink_caps[k] = sink_weight[k] * F;
    const MultiSinkFlow split =
        split_source_flow(g, src, sinks, master.per_source[si], sink_caps);
    double min_delivered = F;
    for (std::size_t k = 0; k < sinks.size(); ++k) {
      // Normalize to per-unit-demand rate so the common-F minimum compares
      // like with like across unequal weights.
      min_delivered = std::min(min_delivered, split.delivered[k] / sink_weight[k]);
      const int di = sink_terminal_index[k];
      const int pair = pairs.index(static_cast<int>(si), di);
      out.per_commodity[static_cast<std::size_t>(pair)] =
          SparseFlow::from_dense(split.per_sink_flow[k]);
    }
    weakest[si] = min_delivered;
  });
  const auto t2 = std::chrono::steady_clock::now();

  out.concurrent_flow = *std::min_element(weakest.begin(), weakest.end());
  out.lp_iterations = master.lp_iterations;
  out.solve_seconds = std::chrono::duration<double>(t2 - t0).count();
  if (timing != nullptr) {
    timing->master_seconds = std::chrono::duration<double>(t1 - t0).count();
    timing->child_seconds = std::chrono::duration<double>(t2 - t1).count();
  }
  return out;
}

}  // namespace a2a
