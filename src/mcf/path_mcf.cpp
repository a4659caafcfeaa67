#include "mcf/path_mcf.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "collectives/demand.hpp"
#include "graph/algorithms.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

/// FPTAS accuracy of the crash start (fptas_crash_basis). The crash only
/// needs each commodity's dominant candidate, and a looser epsilon finds it
/// in fewer phases; measured over GenKautz(16..56, 4) (README, "Crash
/// start").
constexpr double kCrashEpsilon = 0.05;

void check_demand_shape(const DemandMatrix* demand,
                        const std::vector<NodeId>& terminals) {
  if (demand == nullptr) return;
  A2A_REQUIRE(demand->num_terminals() == static_cast<int>(terminals.size()),
              "demand matrix size does not match terminal count");
}

}  // namespace

PathSet build_disjoint_path_set(const DiGraph& g,
                                const std::vector<NodeId>& terminals,
                                const DemandMatrix* demand) {
  check_demand_shape(demand, terminals);
  PathSet set;
  DisjointPathSearch search(g);
  for (std::size_t si = 0; si < terminals.size(); ++si) {
    const NodeId s = terminals[si];
    for (std::size_t ti = 0; ti < terminals.size(); ++ti) {
      const NodeId t = terminals[ti];
      if (s == t) continue;
      const double w = demand == nullptr
                           ? 1.0
                           : demand->at(static_cast<int>(si), static_cast<int>(ti));
      if (w <= 0.0) continue;
      auto paths = search.run(s, t);
      A2A_REQUIRE(!paths.empty(), "no path between terminals ", s, " and ", t);
      set.commodities.emplace_back(s, t);
      set.candidates.push_back(std::move(paths));
      if (demand != nullptr) set.demands.push_back(w);
    }
  }
  return set;
}

PathSet build_shortest_path_set(const DiGraph& g,
                                const std::vector<NodeId>& terminals,
                                int per_pair_limit, bool* truncated,
                                const DemandMatrix* demand) {
  check_demand_shape(demand, terminals);
  if (truncated != nullptr) *truncated = false;
  PathSet set;
  for (std::size_t si = 0; si < terminals.size(); ++si) {
    const NodeId s = terminals[si];
    for (std::size_t ti = 0; ti < terminals.size(); ++ti) {
      const NodeId t = terminals[ti];
      if (s == t) continue;
      const double w = demand == nullptr
                           ? 1.0
                           : demand->at(static_cast<int>(si), static_cast<int>(ti));
      if (w <= 0.0) continue;
      bool trunc = false;
      auto paths = enumerate_shortest_paths(g, s, t, per_pair_limit, &trunc);
      if (trunc && truncated != nullptr) *truncated = true;
      set.commodities.emplace_back(s, t);
      set.candidates.push_back(std::move(paths));
      if (demand != nullptr) set.demands.push_back(w);
    }
  }
  return set;
}

LpModel build_path_mcf_model(const DiGraph& g, const PathSet& paths, int* f_var) {
  const std::size_t K = paths.commodities.size();
  A2A_REQUIRE(K >= 1, "empty path set");
  LpModel model(Sense::kMaximize);
  // One variable per (commodity, candidate), then F.
  std::vector<int> first_var(K);
  for (std::size_t k = 0; k < K; ++k) {
    first_var[k] = model.num_variables();
    for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
      model.add_variable(0.0, kInfinity, 0.0);
    }
  }
  const int f = model.add_variable(0.0, kInfinity, 1.0);

  // (22) capacity rows, built edge-major from the path incidences.
  std::vector<int> cap_row(static_cast<std::size_t>(g.num_edges()), -1);
  for (int e = 0; e < g.num_edges(); ++e) {
    cap_row[static_cast<std::size_t>(e)] =
        model.add_row(RowType::kLessEqual, g.edge(e).capacity);
  }
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
      const int v = first_var[k] + static_cast<int>(p);
      for (const EdgeId e : paths.candidates[k][p]) {
        model.add_coefficient(cap_row[static_cast<std::size_t>(e)], v, 1.0);
      }
    }
    // (23) demand row: path flow >= d_k · F (d_k == 1 when unweighted).
    const int row = model.add_row(RowType::kGreaterEqual, 0.0);
    for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
      model.add_coefficient(row, first_var[k] + static_cast<int>(p), 1.0);
    }
    model.add_coefficient(row, f, -paths.demand_of(k));
  }
  if (f_var != nullptr) *f_var = f;
  return model;
}

/// A crash basis (Bixby, ORSA J. Comput. 1992) seeded from an approximate
/// solution (Megiddo, ORSA J. Comput. 1991): each commodity's heaviest
/// FPTAS candidate is basic, and so is F; every demand row is tight; every
/// capacity slack is basic except the most loaded edge's. The basic
/// solution routes d_k·F on each commodity's one basic path, with F set by
/// the most loaded edge, so it is a primal-feasible vertex and solve_lp()
/// takes it straight into primal phase 2. Relies on build_path_mcf_model's
/// layout: capacity rows edge by edge, then one demand row per commodity.
/// The FPTAS rejects a commodity whose every candidate crosses an edge
/// without capacity, which the LP solves (at F = 0), hence the slack start
/// there.
LpBasis fptas_crash_basis(const DiGraph& g, const PathSet& paths, int f_var,
                          double time_limit_s) {
  A2A_TRACE_SPAN("mcf.crash", "FPTAS crash basis");
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  for (const Edge& e : g.edges()) {
    if (e.capacity <= 0.0) return {};
  }
  FleischerOptions fo;
  fo.epsilon = kCrashEpsilon;
  fo.time_limit_s = time_limit_s;
  const PathFlowSolution approx = fleischer_paths(g, paths, fo);
  A2A_COUNTER("mcf.crash_phases").add(static_cast<std::uint64_t>(approx.phases));

  LpBasis basis;
  basis.variables.assign(static_cast<std::size_t>(f_var) + 1, LpVarStatus::kAtLower);
  basis.rows.assign(m + paths.commodities.size(), LpVarStatus::kAtLower);
  std::vector<double> load(m, 0.0);
  std::size_t var = 0;  // (commodity, candidate) order, as built
  for (std::size_t k = 0; k < paths.candidates.size(); ++k) {
    const auto& w = approx.weights[k];
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(w.begin(), w.end()) - w.begin());
    basis.variables[var + best] = LpVarStatus::kBasic;
    for (const EdgeId e : paths.candidates[k][best]) {
      load[static_cast<std::size_t>(e)] += paths.demand_of(k);
    }
    var += w.size();
  }
  basis.variables[static_cast<std::size_t>(f_var)] = LpVarStatus::kBasic;
  std::size_t tight = 0;
  for (std::size_t e = 1; e < m; ++e) {
    if (load[e] / g.edge(static_cast<EdgeId>(e)).capacity >
        load[tight] / g.edge(static_cast<EdgeId>(tight)).capacity) {
      tight = e;
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    if (e != tight) basis.rows[e] = LpVarStatus::kBasic;
  }
  return basis;
}

PathMcfSolution solve_path_mcf_exact(const DiGraph& g, const PathSet& paths,
                                     const SimplexOptions& lp) {
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto budget_spent = [&] {
    return lp.time_limit_s > 0.0 && seconds_since_start() >= lp.time_limit_s;
  };
  // The model build, the FPTAS crash and the LP share one wall-clock
  // allowance. Once the build or the crash has used it all (a crash may
  // then have been cut short), no LP runs and the solve throws
  // "time-limit": every vertex served comes from an FPTAS that ran to
  // completion.
  int f_var = -1;
  const LpModel model = build_path_mcf_model(g, paths, &f_var);
  LpSolution sol;
  sol.status = LpStatus::kTimeLimit;
  if (!budget_spent()) {
    const LpBasis crash = fptas_crash_basis(
        g, paths, f_var, with_remaining_budget(lp, start).time_limit_s);
    if (!budget_spent()) {
      sol = solve_lp(model, with_remaining_budget(lp, start),
                     crash.empty() ? nullptr : &crash);
    }
  }
  if (!sol.optimal()) {
    throw SolverError("path MCF LP failed: " + to_string(sol.status));
  }
  PathMcfSolution out;
  out.concurrent_flow = sol.values[static_cast<std::size_t>(f_var)];
  out.weights.resize(paths.candidates.size());
  std::size_t var = 0;  // (commodity, candidate) order, as built
  for (std::size_t k = 0; k < paths.candidates.size(); ++k) {
    out.weights[k].resize(paths.candidates[k].size());
    for (double& w : out.weights[k]) {
      const double v = sol.values[var++];
      w = v > 1e-10 ? v : 0.0;
    }
  }
  out.lp_iterations = sol.iterations;
  out.solve_seconds = seconds_since_start();
  return out;
}

double max_link_load(const DiGraph& g, const PathSet& paths,
                     const std::vector<std::vector<double>>& weights) {
  A2A_REQUIRE(weights.size() == paths.candidates.size(),
              "weights shape mismatch");
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const double dk = paths.demand_of(k);
    if (dk <= 0.0) continue;
    double total = 0.0;
    for (const double w : weights[k]) total += w;
    A2A_REQUIRE(total > 0.0, "commodity ", k, " has zero total weight");
    for (std::size_t p = 0; p < weights[k].size(); ++p) {
      const double share = dk * (weights[k][p] / total);
      if (share <= 0.0) continue;
      for (const EdgeId e : paths.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += share / g.edge(e).capacity;
      }
    }
  }
  double worst = 0.0;
  for (const double l : load) worst = std::max(worst, l);
  return worst;
}

}  // namespace a2a
