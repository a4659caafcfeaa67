// Link-variable max-concurrent multi-commodity flow — §3.1.1 of the paper.
//
// The all-to-all collective on G is modelled as an MCF with one unit-demand
// commodity per ordered terminal pair; the optimal concurrent rate F gives
// the throughput upper bound (N-1)·F·b and 1/F is the "all-to-all time"
// plotted throughout §5.
#pragma once

#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "lp/simplex.hpp"
#include "mcf/sparse_flow.hpp"

namespace a2a {

class DemandMatrix;  // collectives/demand.hpp; nullptr params mean unit demand

/// Ordered pairs over a terminal set. On plain fabrics the terminals are all
/// nodes; on Fig. 2-augmented graphs they are the host nodes only.
class TerminalPairs {
 public:
  explicit TerminalPairs(std::vector<NodeId> terminals);

  [[nodiscard]] int num_terminals() const {
    return static_cast<int>(terminals_.size());
  }
  [[nodiscard]] int count() const {
    return num_terminals() * (num_terminals() - 1);
  }
  /// Index of the commodity (terminals[si] -> terminals[di]), si != di.
  [[nodiscard]] int index(int si, int di) const;
  /// Inverse of index(): terminal indices of commodity `idx`.
  [[nodiscard]] std::pair<int, int> terminal_indices(int idx) const;
  /// Node ids of commodity `idx`.
  [[nodiscard]] std::pair<NodeId, NodeId> nodes(int idx) const;

  [[nodiscard]] const std::vector<NodeId>& terminals() const {
    return terminals_;
  }

 private:
  std::vector<NodeId> terminals_;
};

/// Per-commodity link flows at a common concurrent rate F.
struct LinkFlowSolution {
  double concurrent_flow = 0.0;  ///< F
  TerminalPairs pairs{std::vector<NodeId>{}};
  /// per_commodity[pair index][edge id] — flow of that commodity on the
  /// edge. Sparse: each commodity touches a handful of edges, so the old
  /// dense S^2 x E matrix of doubles is now (edge, value) support lists.
  std::vector<SparseFlow> per_commodity;
  long long lp_iterations = 0;
  double solve_seconds = 0.0;

  /// Total flow on each edge (sum over commodities).
  [[nodiscard]] std::vector<double> total_edge_flow(const DiGraph& g) const;
};

/// Aggregate per-source flows (the master solution of §3.1.2).
struct GroupedFlowSolution {
  double concurrent_flow = 0.0;  ///< F
  std::vector<NodeId> terminals;
  /// per_source[terminal index][edge id]
  std::vector<std::vector<double>> per_source;
  double solve_seconds = 0.0;
  long long lp_iterations = 0;
  /// fleischer_grouped stopped on FleischerOptions::time_limit_s before the
  /// stopping rule (the exact master throws instead).
  bool timed_out = false;
};

/// All nodes of g as the terminal set.
[[nodiscard]] std::vector<NodeId> all_nodes(const DiGraph& g);

/// Variable layout of the link-MCF LP: commodity-major flow variables. The
/// single definition shared by the model builder and every consumer of
/// LpSolution::values.
[[nodiscard]] inline int link_mcf_var(int num_edges, int k, int e) {
  return k * num_edges + e;
}

/// Builds the link-MCF LP (eqs. 1–5) without solving it. Variables follow
/// link_mcf_var() with the concurrent rate F last (`*f_var`). Exposed so
/// benchmarks and tests can time/inspect the exact model the solver entry
/// points run. A non-null `demand` weights each commodity's demand row by
/// w_k (eq. 4 becomes in(d) >= w_k * F); zero-weight commodities get their
/// variables fixed to zero. A unit matrix builds the identical model to
/// nullptr — the weighted path is a strict generalization.
[[nodiscard]] LpModel build_link_mcf_model(const DiGraph& g,
                                           const TerminalPairs& pairs,
                                           int* f_var = nullptr,
                                           const DemandMatrix* demand = nullptr);

/// Exact link-based MCF (eqs. 1–5), solved from the slack basis. Tractable
/// only at small N (the point of Fig. 7); throws SolverError naming the LP
/// status on any outcome but an optimum. F is per unit demand: commodity k
/// receives w_k * F.
[[nodiscard]] LinkFlowSolution solve_link_mcf_exact(
    const DiGraph& g, const std::vector<NodeId>& terminals,
    const SimplexOptions& lp = {}, const DemandMatrix* demand = nullptr);

/// Exact master LP (eqs. 6–9): grouped source-rooted commodities, solved
/// and reported as in solve_link_mcf_exact(). With `demand`, the grouped
/// conservation row (eq. 8) requires w(s,u) * F net inflow at terminal u.
[[nodiscard]] GroupedFlowSolution solve_master_lp(
    const DiGraph& g, const std::vector<NodeId>& terminals,
    const SimplexOptions& lp = {}, const DemandMatrix* demand = nullptr);

}  // namespace a2a
