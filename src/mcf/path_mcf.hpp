// Path-variable MCF (pMCF) — §3.1.4, eqs. (21)-(24).
//
// For fabrics with NIC forwarding, flow variables live on candidate paths.
// The exact LP is the dual view of the link MCF; with the candidate set
// restricted to link-disjoint paths (|P| <= d per pair) it stays tractable
// and — as §5.3 observes — almost matches the unrestricted optimum, while
// all-shortest-path candidates can be both weaker (expanders) and
// exponentially many (tori).
#pragma once

#include "graph/digraph.hpp"
#include "lp/simplex.hpp"
#include "mcf/fleischer.hpp"

namespace a2a {

/// Candidate set builders -----------------------------------------------
///
/// With a non-null `demand`, zero-weight pairs are omitted from the set and
/// PathSet::demands records each kept commodity's weight; nullptr keeps the
/// historical all-pairs shape with `demands` left empty (unit).

/// Maximal link-disjoint path sets for every ordered terminal pair.
[[nodiscard]] PathSet build_disjoint_path_set(const DiGraph& g,
                                              const std::vector<NodeId>& terminals,
                                              const DemandMatrix* demand = nullptr);

/// All shortest paths per pair, truncated at `per_pair_limit`; `truncated`
/// (optional) reports whether any pair hit the limit — the Fig. 1
/// "#(s,d) paths large?" signal.
[[nodiscard]] PathSet build_shortest_path_set(const DiGraph& g,
                                              const std::vector<NodeId>& terminals,
                                              int per_pair_limit = 64,
                                              bool* truncated = nullptr,
                                              const DemandMatrix* demand = nullptr);

/// Builds the pMCF LP (eqs. 21–24) without solving it. Variables run over
/// (commodity, candidate) in `paths` order, with the concurrent rate F last
/// (`*f_var`); F has an entry in every commodity's demand row. Exposed so
/// tests can inspect the exact model the solver entry points run.
[[nodiscard]] LpModel build_path_mcf_model(const DiGraph& g, const PathSet& paths,
                                           int* f_var = nullptr);

/// The crash basis solve_path_mcf_exact starts from, for the model
/// build_path_mcf_model builds (F at `f_var`); exposed so tests can read the
/// crash vertex. A short FPTAS run (fleischer_paths at a fixed epsilon,
/// stopped at its first phase boundary past `time_limit_s`, 0 = none) picks
/// each commodity's heaviest candidate, which with F and the slacks of all
/// but the most loaded edge forms a primal-feasible vertex. A graph with a
/// zero-capacity edge gets an empty basis, the slack start.
[[nodiscard]] LpBasis fptas_crash_basis(const DiGraph& g, const PathSet& paths,
                                        int f_var, double time_limit_s = 0.0);

/// Exact path-based MCF LP. Result weights align with `paths.candidates`.
struct PathMcfSolution {
  double concurrent_flow = 0.0;
  std::vector<std::vector<double>> weights;  ///< [commodity][candidate].
  long long lp_iterations = 0;
  /// The model build, the crash's FPTAS (if run) and the LP.
  double solve_seconds = 0.0;
};
/// Every solve starts from fptas_crash_basis(); on GenKautz(27,4) it takes
/// 844 pivots where the slack start takes 5 821. Returns an optimum or
/// throws SolverError naming the LP status. The model build and the crash
/// count against SimplexOptions::time_limit_s: the crash's FPTAS gets what
/// the build left, and a build or crash that used the whole budget seeds no
/// LP and throws "time-limit", so a vertex served never depends on timing.
[[nodiscard]] PathMcfSolution solve_path_mcf_exact(const DiGraph& g,
                                                   const PathSet& paths,
                                                   const SimplexOptions& lp = {});

/// Max per-edge load if each commodity splits its demand (unit, or
/// PathSet::demands when set) over its candidate paths with the given
/// weights (weights are normalized per commodity first). 1/load is the
/// achieved concurrent rate per unit demand.
[[nodiscard]] double max_link_load(const DiGraph& g, const PathSet& paths,
                                   const std::vector<std::vector<double>>& weights);

}  // namespace a2a
