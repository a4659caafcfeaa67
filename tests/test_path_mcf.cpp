// Path-based MCF (§3.1.4): disjoint-path candidates nearly match the
// unrestricted optimum (the §5.3 observation), shortest-path candidates can
// be strictly worse on expanders.
#include "mcf/path_mcf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "collectives/demand.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {
namespace {

TEST(PathMcf, DisjointMatchesLinkOptimumOnHypercube) {
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(sol.concurrent_flow, 0.25, 1e-5);
}

TEST(PathMcf, DisjointMatchesLinkOptimumOnK44) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(sol.concurrent_flow, 0.4, 1e-5);
}

TEST(PathMcf, ShortestPathsWeakerThanDisjointOnExpander) {
  // §5.3: pMCF with only shortest paths is suboptimal on expanders because
  // expanders have few shortest paths.
  const DiGraph g = make_generalized_kautz(10, 3);
  const std::vector<NodeId> nodes = all_nodes(g);
  const double f_disjoint =
      solve_path_mcf_exact(g, build_disjoint_path_set(g, nodes)).concurrent_flow;
  const double f_shortest =
      solve_path_mcf_exact(g, build_shortest_path_set(g, nodes, 64)).concurrent_flow;
  EXPECT_LE(f_shortest, f_disjoint + 1e-6);
  const double f_link = solve_link_mcf_exact(g, nodes).concurrent_flow;
  EXPECT_GE(f_disjoint, 0.85 * f_link);  // near-optimal per §5.3
}

TEST(PathMcf, UnrestrictedPathsEqualLinkDualOnSmallGraph) {
  // On a 5-ring, shortest+disjoint candidates already realize the full dual.
  const DiGraph g = make_ring(5);
  const std::vector<NodeId> nodes = all_nodes(g);
  const double f_link = solve_link_mcf_exact(g, nodes).concurrent_flow;
  const double f_path =
      solve_path_mcf_exact(g, build_disjoint_path_set(g, nodes)).concurrent_flow;
  EXPECT_NEAR(f_link, f_path, 1e-5);
}

TEST(PathMcf, WeightsRespectCapacitiesAndDemands) {
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < set.candidates.size(); ++k) {
    double demand = 0;
    for (std::size_t p = 0; p < set.candidates[k].size(); ++p) {
      demand += sol.weights[k][p];
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
    EXPECT_GE(demand, sol.concurrent_flow - 1e-6);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(PathMcf, MaxLinkLoadInverseOfF) {
  // With weights normalized per commodity, 1/max_link_load is the rate the
  // schedule actually achieves; for the optimal weights it equals F.
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  const double load = max_link_load(g, set, sol.weights);
  EXPECT_NEAR(1.0 / load, sol.concurrent_flow, 1e-5);
}

TEST(PathMcf, ShortestSetTruncationFlagOnTorus) {
  const DiGraph g = make_torus({3, 3, 3});
  bool truncated = false;
  (void)build_shortest_path_set(g, all_nodes(g), 4, &truncated);
  EXPECT_TRUE(truncated);  // tori have many shortest paths (§3.1.4)
}

TEST(PathMcf, BudgetedSolveThrowsTimeLimit) {
  // A budget the solve cannot meet yields no answer at all: the error names
  // the LP status, which the service maps to a deadline shed.
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  SimplexOptions lp;
  lp.time_limit_s = 1e-9;
  try {
    (void)solve_path_mcf_exact(g, set, lp);
    FAIL() << "a 1 ns budget was met";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("time-limit"), std::string::npos) << e.what();
  }
}

TEST(PathMcf, BudgetedSolveMatchesExactWithGenerousBudget) {
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  SimplexOptions lp;
  lp.time_limit_s = 30.0;
  const auto sol = solve_path_mcf_exact(g, set, lp);
  EXPECT_NEAR(sol.concurrent_flow, 0.25, 1e-5);
}

TEST(PathMcf, BuildDisjointThrowsOnDisconnectedTerminals) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  EXPECT_THROW(build_disjoint_path_set(g, {0, 2}), InvalidArgument);
}

// ---- the FPTAS crash start --------------------------------------------------
//
// solve_path_mcf_exact starts from a crash basis built from a short FPTAS
// run. These check it against the slack start, solve_lp() on the same
// model.

/// F of the slack-start solve, and its pivots.
struct SlackStart {
  double f = 0.0;
  long long iterations = 0;
};

SlackStart slack_start(const DiGraph& g, const PathSet& set) {
  const LpSolution sol = solve_lp(build_path_mcf_model(g, set));
  EXPECT_TRUE(sol.optimal());
  return {sol.objective, sol.iterations};
}

bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].size() != b[k].size() ||
        std::memcmp(a[k].data(), b[k].data(), a[k].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(PathMcfCrash, MatchesTheSlackStartOnGenKautz) {
  for (const int n : {12, 16, 20, 27}) {
    const DiGraph g = make_generalized_kautz(n, 4);
    for (const char* spec : {"uniform", "zipf:0.6", "zipf:1.2", "block:3"}) {
      SCOPED_TRACE("GenKautz(" + std::to_string(n) + ",4) " + spec);
      const DemandMatrix demand = DemandSpec::parse(spec).instantiate(n);
      const PathSet set = build_disjoint_path_set(g, all_nodes(g), &demand);
      const SlackStart slack = slack_start(g, set);
      const PathMcfSolution crash = solve_path_mcf_exact(g, set);
      EXPECT_NEAR(crash.concurrent_flow, slack.f, 1e-8 * slack.f);
      if (std::string(spec) == "uniform") {
        EXPECT_LT(crash.lp_iterations, slack.iterations);
      }
    }
  }
}

TEST(PathMcfCrash, MatchesTheSlackStartWithTwoLinksCollapsed) {
  const DiGraph healthy = make_generalized_kautz(27, 4);
  const PathSet set = build_disjoint_path_set(healthy, all_nodes(healthy));
  DiGraph g = healthy;
  for (const EdgeId e : {3, 17}) g.set_capacity(e, 1e-7);
  const SlackStart slack = slack_start(g, set);
  const PathMcfSolution crash = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(crash.concurrent_flow, slack.f, 1e-8 * slack.f);
}

TEST(PathMcfCrash, ZeroCapacityEdgeKeepsTheSlackStart) {
  // The crash leaves a graph with an edge without capacity to the slack
  // basis; the exact solve still must solve it.
  DiGraph g = make_generalized_kautz(12, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  g.set_capacity(5, 0.0);
  const SlackStart slack = slack_start(g, set);
  const PathMcfSolution sol = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(sol.concurrent_flow, slack.f, 1e-8 * slack.f);
  EXPECT_EQ(sol.lp_iterations, slack.iterations);
}

TEST(PathMcfCrash, StartsFromAPrimalFeasibleVertex) {
  // Stopped before its first pivot, the LP reports the crash vertex: one
  // candidate per commodity carries d_k·F, and no edge is over capacity.
  const DiGraph g = make_generalized_kautz(27, 4);
  for (const char* spec : {"uniform", "zipf:0.6"}) {
    SCOPED_TRACE(spec);
    const DemandMatrix demand = DemandSpec::parse(spec).instantiate(27);
    const PathSet set = build_disjoint_path_set(g, all_nodes(g), &demand);
    int f_var = -1;
    const LpModel model = build_path_mcf_model(g, set, &f_var);
    const LpBasis crash = fptas_crash_basis(g, set, f_var);
    const LpSolution start = solve_lp(model, {.max_iterations = 0}, &crash);
    EXPECT_EQ(start.status, LpStatus::kIterationLimit);
    EXPECT_TRUE(start.warm_started);
    const double f = start.values[static_cast<std::size_t>(f_var)];
    ASSERT_GT(f, 0.0);
    std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
    std::size_t var = 0;  // (commodity, candidate) order, as built
    for (std::size_t k = 0; k < set.candidates.size(); ++k) {
      int carrying = 0;
      double total = 0.0;
      for (const Path& path : set.candidates[k]) {
        const double v = start.values[var++];
        const double w = v > 1e-10 ? v : 0.0;  // the weights solve_path_mcf_exact reports
        carrying += w > 0.0 ? 1 : 0;
        total += w;
        for (const EdgeId e : path) load[static_cast<std::size_t>(e)] += w;
      }
      EXPECT_EQ(carrying, 1);
      EXPECT_NEAR(total, set.demand_of(k) * f, 1e-12);
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity * (1.0 + 1e-12));
    }
  }
}

TEST(PathMcfCrash, RepeatedSolvesAreBitIdentical) {
  const DiGraph g = make_generalized_kautz(27, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const PathMcfSolution first = solve_path_mcf_exact(g, set);
  const PathMcfSolution second = solve_path_mcf_exact(g, set);
  EXPECT_EQ(first.lp_iterations, second.lp_iterations);
  EXPECT_EQ(std::memcmp(&first.concurrent_flow, &second.concurrent_flow,
                        sizeof(double)),
            0);
  EXPECT_TRUE(same_bits(first.weights, second.weights));
}

TEST(PathMcfCrash, AllOnesDemandSolvesLikeNoDemand) {
  const DiGraph g = make_generalized_kautz(16, 4);
  const DemandMatrix ones = DemandMatrix::uniform(g.num_nodes());
  const PathSet unit = build_disjoint_path_set(g, all_nodes(g));
  const PathSet weighted = build_disjoint_path_set(g, all_nodes(g), &ones);
  ASSERT_FALSE(weighted.demands.empty());
  const PathMcfSolution a = solve_path_mcf_exact(g, unit);
  const PathMcfSolution b = solve_path_mcf_exact(g, weighted);
  EXPECT_EQ(std::memcmp(&a.concurrent_flow, &b.concurrent_flow, sizeof(double)), 0);
  EXPECT_TRUE(same_bits(a.weights, b.weights));
}

TEST(PathMcfCrash, IsTracedInsideTheSolve) {
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  obs::TraceSession session;
  (void)solve_path_mcf_exact(g, set);
  const auto events = session.events();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const obs::TraceEvent& e) {
    return std::string(e.name) == "mcf.crash";
  }));
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(PathMcfCrash, BudgetSpentInTheBuildRunsNoCrash) {
  // The model build, the crash's FPTAS and the LP share one wall-clock
  // allowance. Building GenKautz(27,4)'s pMCF model takes far longer than
  // this budget, so the solve stops before the crash runs a phase, seeds
  // no LP and throws.
  const DiGraph g = make_generalized_kautz(27, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  SimplexOptions lp;
  lp.time_limit_s = 1e-9;
  const std::uint64_t phases_before = counter_value("mcf.crash_phases");
  const std::uint64_t pivots_before = counter_value("lp.iterations");
  EXPECT_THROW((void)solve_path_mcf_exact(g, set, lp), SolverError);
  EXPECT_EQ(counter_value("mcf.crash_phases"), phases_before);
  EXPECT_EQ(counter_value("lp.iterations"), pivots_before);
}

TEST(PathMcfCrash, AmpleBudgetSolvesLikeNoBudget) {
  // A budget the solve stays inside changes neither the crash nor the
  // vertex: same FPTAS phases, pivots and weights, bit for bit.
  const DiGraph g = make_generalized_kautz(16, 4);
  const DemandMatrix demand = DemandSpec::parse("zipf:0.6").instantiate(16);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g), &demand);
  std::uint64_t before = counter_value("mcf.crash_phases");
  const PathMcfSolution free_run = solve_path_mcf_exact(g, set);
  const std::uint64_t free_phases = counter_value("mcf.crash_phases") - before;
  SimplexOptions lp;
  lp.time_limit_s = 600.0;
  before = counter_value("mcf.crash_phases");
  const PathMcfSolution budgeted = solve_path_mcf_exact(g, set, lp);
  EXPECT_GT(free_phases, 1u);
  EXPECT_EQ(counter_value("mcf.crash_phases") - before, free_phases);
  EXPECT_EQ(budgeted.lp_iterations, free_run.lp_iterations);
  EXPECT_TRUE(same_bits(budgeted.weights, free_run.weights));
}

}  // namespace
}  // namespace a2a
