#include "mcf/concurrent_flow.hpp"

#include <algorithm>

#include "collectives/demand.hpp"

namespace a2a {

TerminalPairs::TerminalPairs(std::vector<NodeId> terminals)
    : terminals_(std::move(terminals)) {}

int TerminalPairs::index(int si, int di) const {
  A2A_REQUIRE(si != di, "commodity with equal endpoints");
  A2A_REQUIRE(si >= 0 && si < num_terminals() && di >= 0 && di < num_terminals(),
              "terminal index out of range");
  return si * (num_terminals() - 1) + (di > si ? di - 1 : di);
}

std::pair<int, int> TerminalPairs::terminal_indices(int idx) const {
  A2A_REQUIRE(idx >= 0 && idx < count(), "commodity index out of range");
  const int si = idx / (num_terminals() - 1);
  int di = idx % (num_terminals() - 1);
  if (di >= si) ++di;
  return {si, di};
}

std::pair<NodeId, NodeId> TerminalPairs::nodes(int idx) const {
  const auto [si, di] = terminal_indices(idx);
  return {terminals_[static_cast<std::size_t>(si)],
          terminals_[static_cast<std::size_t>(di)]};
}

std::vector<double> LinkFlowSolution::total_edge_flow(const DiGraph& g) const {
  std::vector<double> total(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const auto& commodity : per_commodity) {
    for (std::size_t k = 0; k < commodity.size(); ++k) {
      total[static_cast<std::size_t>(commodity.edges()[k])] += commodity.values()[k];
    }
  }
  return total;
}

std::vector<NodeId> all_nodes(const DiGraph& g) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) nodes[static_cast<std::size_t>(u)] = u;
  return nodes;
}

LpModel build_link_mcf_model(const DiGraph& g, const TerminalPairs& pairs,
                             int* f_var_out, const DemandMatrix* demand) {
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == pairs.num_terminals(),
                "demand matrix size does not match terminal count");
  }
  const int E = g.num_edges();
  const int K = pairs.count();
  LpModel model(Sense::kMaximize);
  // Variables: f[(s,d), e] laid out commodity-major, then F last. Flow of a
  // commodity leaving its sink or entering its source is useless circulation
  // and is fixed to zero via bounds; so is every variable of a zero-weight
  // commodity.
  for (int k = 0; k < K; ++k) {
    const auto [s, d] = pairs.nodes(k);
    const bool zero = demand_weight(demand, pairs, k) <= 0.0;
    for (int e = 0; e < E; ++e) {
      const Edge& edge = g.edge(e);
      const bool useless = edge.from == d || edge.to == s;
      model.add_variable(0.0, (useless || zero) ? 0.0 : kInfinity, 0.0);
    }
  }
  const int f_var = model.add_variable(0.0, kInfinity, 1.0);
  if (f_var_out != nullptr) *f_var_out = f_var;
  auto var = [&](int k, int e) { return link_mcf_var(E, k, e); };

  // (2) capacity per edge.
  for (int e = 0; e < E; ++e) {
    const int row = model.add_row(RowType::kLessEqual, g.edge(e).capacity);
    for (int k = 0; k < K; ++k) model.add_coefficient(row, var(k, e), 1.0);
  }
  // (3) relaxed conservation at every u not in {s, d}:  out - in <= 0.
  for (int k = 0; k < K; ++k) {
    const auto [s, d] = pairs.nodes(k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == s || u == d) continue;
      const int row = model.add_row(RowType::kLessEqual, 0.0);
      for (const EdgeId e : g.out_edges(u)) model.add_coefficient(row, var(k, e), 1.0);
      for (const EdgeId e : g.in_edges(u)) model.add_coefficient(row, var(k, e), -1.0);
    }
    // (4) demand at the sink: in(d) - w_k * F >= 0. A zero-weight commodity
    // keeps its (trivially satisfied) row so the model shape is independent
    // of the weights — only coefficients change.
    const double w = demand_weight(demand, pairs, k);
    const int demand_row = model.add_row(RowType::kGreaterEqual, 0.0);
    for (const EdgeId e : g.in_edges(d)) {
      model.add_coefficient(demand_row, var(k, e), 1.0);
    }
    if (w > 0.0) model.add_coefficient(demand_row, f_var, -w);
  }
  return model;
}

LinkFlowSolution solve_link_mcf_exact(const DiGraph& g,
                                      const std::vector<NodeId>& terminals,
                                      const SimplexOptions& lp,
                                      const DemandMatrix* demand) {
  A2A_REQUIRE(terminals.size() >= 2, "need at least two terminals");
  TerminalPairs pairs(terminals);
  const int E = g.num_edges();
  const int K = pairs.count();
  int f_var = -1;
  const LpModel model = build_link_mcf_model(g, pairs, &f_var, demand);
  auto var = [&](int k, int e) { return link_mcf_var(E, k, e); };

  const LpSolution sol = solve_lp(model, lp);
  if (!sol.optimal()) {
    throw SolverError("link MCF LP failed: " + to_string(sol.status));
  }
  LinkFlowSolution out;
  out.pairs = pairs;
  out.concurrent_flow = sol.values[static_cast<std::size_t>(f_var)];
  out.per_commodity.resize(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    auto& flow = out.per_commodity[static_cast<std::size_t>(k)];
    for (int e = 0; e < E; ++e) {
      const double v = sol.values[static_cast<std::size_t>(var(k, e))];
      if (v > 1e-10) flow.push(e, v);
    }
  }
  out.lp_iterations = sol.iterations;
  out.solve_seconds = sol.solve_seconds;
  return out;
}

GroupedFlowSolution solve_master_lp(const DiGraph& g,
                                    const std::vector<NodeId>& terminals,
                                    const SimplexOptions& lp,
                                    const DemandMatrix* demand) {
  A2A_REQUIRE(terminals.size() >= 2, "need at least two terminals");
  const int E = g.num_edges();
  const int S = static_cast<int>(terminals.size());
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == S,
                "demand matrix size does not match terminal count");
  }
  std::vector<int> terminal_index(static_cast<std::size_t>(g.num_nodes()), -1);
  for (int s = 0; s < S; ++s) {
    terminal_index[static_cast<std::size_t>(terminals[static_cast<std::size_t>(s)])] = s;
  }

  LpModel model(Sense::kMaximize);
  // Grouped flow back into its own source is useless; fix it to zero.
  for (int s = 0; s < S; ++s) {
    const NodeId src = terminals[static_cast<std::size_t>(s)];
    for (int e = 0; e < E; ++e) {
      const bool useless = g.edge(e).to == src;
      model.add_variable(0.0, useless ? 0.0 : kInfinity, 0.0);
    }
  }
  const int f_var = model.add_variable(0.0, kInfinity, 1.0);
  auto var = [&](int s, int e) { return s * E + e; };

  // (7) capacity per edge.
  for (int e = 0; e < E; ++e) {
    const int row = model.add_row(RowType::kLessEqual, g.edge(e).capacity);
    for (int s = 0; s < S; ++s) model.add_coefficient(row, var(s, e), 1.0);
  }
  // (8) grouped conservation: at terminal u != s, w(s,u)·F + out <= in; at
  // non-terminal forwarders, out <= in.
  for (int s = 0; s < S; ++s) {
    const NodeId src = terminals[static_cast<std::size_t>(s)];
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == src) continue;
      const int row = model.add_row(RowType::kLessEqual, 0.0);
      for (const EdgeId e : g.out_edges(u)) model.add_coefficient(row, var(s, e), 1.0);
      for (const EdgeId e : g.in_edges(u)) model.add_coefficient(row, var(s, e), -1.0);
      const int u_idx = terminal_index[static_cast<std::size_t>(u)];
      if (u_idx >= 0) {
        const double w = demand == nullptr ? 1.0 : demand->at(s, u_idx);
        if (w > 0.0) model.add_coefficient(row, f_var, w);
      }
    }
  }

  const LpSolution sol = solve_lp(model, lp);
  if (!sol.optimal()) {
    throw SolverError("master MCF LP failed: " + to_string(sol.status));
  }
  GroupedFlowSolution out;
  out.terminals = terminals;
  out.concurrent_flow = sol.values[static_cast<std::size_t>(f_var)];
  out.per_source.assign(static_cast<std::size_t>(S),
                        std::vector<double>(static_cast<std::size_t>(E), 0.0));
  for (int s = 0; s < S; ++s) {
    for (int e = 0; e < E; ++e) {
      const double v = sol.values[static_cast<std::size_t>(var(s, e))];
      out.per_source[static_cast<std::size_t>(s)][static_cast<std::size_t>(e)] =
          v > 1e-10 ? v : 0.0;
    }
  }
  out.lp_iterations = sol.iterations;
  out.solve_seconds = sol.solve_seconds;
  return out;
}

}  // namespace a2a
