// Decomposed MCF (§3.1.2): the headline equivalence — decomposition attains
// the same optimal F as the original LP — plus feasibility of the
// per-commodity flows the combinatorial children recover.
#include "mcf/decomposed.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "graph/topologies.hpp"

namespace a2a {
namespace {

void check_per_commodity_feasible(const DiGraph& g, const LinkFlowSolution& sol) {
  const auto total = sol.total_edge_flow(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(total[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-5);
  }
  for (int k = 0; k < sol.pairs.count(); ++k) {
    const auto [s, d] = sol.pairs.nodes(k);
    const auto& flow = sol.per_commodity[static_cast<std::size_t>(k)];
    double delivered = 0;
    for (const EdgeId e : g.in_edges(d)) delivered += flow[static_cast<std::size_t>(e)];
    for (const EdgeId e : g.out_edges(d)) delivered -= flow[static_cast<std::size_t>(e)];
    EXPECT_GE(delivered, sol.concurrent_flow - 1e-5) << s << "->" << d;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == s || u == d) continue;
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += flow[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += flow[static_cast<std::size_t>(e)];
      EXPECT_NEAR(in, out, 1e-5) << "conservation at " << u;
    }
  }
}

struct Case {
  const char* name;
  DiGraph graph;
  double expected_f;  // < 0: no closed form, compared with the link LP
};

std::vector<Case> cases() {
  Rng rng(99);
  std::vector<Case> out;
  out.push_back({"ring6", make_ring(6), 12.0 / (6 * 9.0)});
  out.push_back({"hypercube3", make_hypercube(3), 0.25});
  out.push_back({"k44", make_complete_bipartite(4, 4), 0.4});
  out.push_back({"torus333", make_torus({3, 3, 3}), 1.0 / 9.0});
  out.push_back({"genkautz12_3", make_generalized_kautz(12, 3), -1.0});
  out.push_back({"random16_3", make_random_regular(16, 3, rng), -1.0});
  return out;
}

class DecomposedVsExact : public ::testing::TestWithParam<int> {};

TEST_P(DecomposedVsExact, CombinatorialChildrenReachMasterOptimum) {
  Case c = cases()[static_cast<std::size_t>(GetParam())];
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  DecomposedTiming timing;
  const auto sol = solve_decomposed_mcf(c.graph, all_nodes(c.graph), options,
                                        &timing);
  if (c.expected_f > 0) {
    EXPECT_NEAR(sol.concurrent_flow, c.expected_f, 1e-5) << c.name;
  } else {
    // No closed form: the undecomposed link LP (eqs. 1-5) is the reference.
    const double exact =
        solve_link_mcf_exact(c.graph, all_nodes(c.graph)).concurrent_flow;
    EXPECT_NEAR(sol.concurrent_flow, exact, 1e-6 * exact) << c.name;
  }
  check_per_commodity_feasible(c.graph, sol);
  EXPECT_GT(timing.master_seconds, 0.0);
  EXPECT_GT(timing.child_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Cases, DecomposedVsExact, ::testing::Range(0, 6));

TEST(Decomposed, FptasMasterWithinEpsilon) {
  const DiGraph g = make_torus({3, 3, 3});
  DecomposedOptions options;
  options.exact_master_limit = 0;
  options.fptas_epsilon = 0.05;
  const auto sol = solve_decomposed_mcf(g, all_nodes(g), options);
  // Feasible (<= OPT) and within ~3*eps of the known optimum 1/9.
  EXPECT_LE(sol.concurrent_flow, 1.0 / 9.0 + 1e-6);
  EXPECT_GE(sol.concurrent_flow, (1.0 / 9.0) * (1.0 - 0.15));
  check_per_commodity_feasible(g, sol);
}

TEST(Decomposed, FptasMasterCutShortByItsBudgetThrows) {
  // An FPTAS master stopped on its time limit is weaker than its epsilon
  // promises; like an LP master cut short, it throws instead of answering.
  const DiGraph g = make_torus({3, 3, 3});
  DecomposedOptions options;
  options.exact_master_limit = 0;
  options.fptas.time_limit_s = 1e-9;
  try {
    (void)solve_decomposed_mcf(g, all_nodes(g), options);
    FAIL() << "a 1 ns budget was met";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("time-limit"), std::string::npos) << e.what();
  }
}

TEST(Decomposed, WorksOnPuncturedTorus) {
  Rng rng(5);
  const DiGraph g = puncture_edges(make_torus({3, 3, 3}), 3, rng);
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  const auto sol = solve_decomposed_mcf(g, all_nodes(g), options);
  // Punctures can only hurt: F <= 1/9, but connectivity keeps F > 0.
  EXPECT_LE(sol.concurrent_flow, 1.0 / 9.0 + 1e-6);
  EXPECT_GT(sol.concurrent_flow, 0.0);
  check_per_commodity_feasible(g, sol);
}

TEST(Decomposed, MasterSwitchesToFptasBeyondLimit) {
  const DiGraph g = make_generalized_kautz(48, 4);
  DecomposedOptions options;
  options.exact_master_limit = 16;  // force the FPTAS branch
  options.fptas_epsilon = 0.05;
  const auto sol = solve_decomposed_mcf(g, all_nodes(g), options);
  EXPECT_GT(sol.concurrent_flow, 0.0);
  check_per_commodity_feasible(g, sol);
}

}  // namespace
}  // namespace a2a
