// Decomposed MCF — §3.1.2, the paper's headline scalability contribution.
//
// The O(N^3)-variable link MCF is split into
//   * a master LP on N source-grouped commodities (O(N^2) variables), and
//   * N independent child problems, one per source, run on the process-wide
//     ThreadPool::shared() (inline when the caller is itself one of its
//     workers).
//
// The master is the exact simplex up to `exact_master_limit` terminals and
// the Fleischer FPTAS at tight epsilon beyond. Each child is solved by an
// exact combinatorial splitter (max-flow within the master's per-source flow
// followed by flow decomposition) in place of the paper's child LP
// (eqs. 10-14): any valid per-destination split attains the same F, so it is
// a faithful and much faster stand-in.
#pragma once

#include "mcf/concurrent_flow.hpp"
#include "mcf/fleischer.hpp"

namespace a2a {

struct DecomposedOptions {
  /// The exact LP master runs up to this many terminals, the FPTAS beyond
  /// (0 always takes the FPTAS). Raised from 40 with the sparse revised
  /// simplex: the GenKautz(56, d=4) master LP solves in ~40s where the dense
  /// solver needed minutes at 40 (see BENCH_lp.json).
  int exact_master_limit = 56;
  double fptas_epsilon = 0.02;
  SimplexOptions lp;
  FleischerOptions fptas;
};

struct DecomposedTiming {
  double master_seconds = 0.0;
  double child_seconds = 0.0;  ///< wall time of the parallel child stage.
};

/// Full decomposed solve: returns per-commodity link flows at the common
/// rate F (the reported F is min(master F, weakest delivered commodity) and
/// equals the master F up to tolerance). A master cut short by its budget
/// (options.lp.time_limit_s for the LP, options.fptas.time_limit_s for the
/// FPTAS) throws SolverError naming "time-limit". `master_warm` is unused
/// and may be null; it is kept so existing callers compile unchanged. With a
/// non-null `demand`, F is the common rate per unit demand (sink d of
/// source s receives w(s,d)·F); zero-weight sinks are dropped from their
/// source's child problem and silent sources skip the child stage entirely.
[[nodiscard]] LinkFlowSolution solve_decomposed_mcf(
    const DiGraph& g, const std::vector<NodeId>& terminals,
    const DecomposedOptions& options = {}, DecomposedTiming* timing = nullptr,
    LpBasis* master_warm = nullptr, const DemandMatrix* demand = nullptr);

}  // namespace a2a
