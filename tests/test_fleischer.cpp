// Fleischer FPTAS (§2.3 baseline / large-N master): feasibility always,
// (1 - O(eps)) optimality against the exact simplex on overlapping sizes.
#include "mcf/fleischer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/topologies.hpp"
#include "mcf/path_mcf.hpp"

namespace a2a {
namespace {

void check_grouped_feasible(const DiGraph& g, const GroupedFlowSolution& sol) {
  std::vector<double> total(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const auto& fs : sol.per_source) {
    for (std::size_t e = 0; e < total.size(); ++e) total[e] += fs[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(total[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
  // Every source delivers >= F to each other terminal (grouped form:
  // inflow - outflow >= F at every other terminal).
  for (std::size_t si = 0; si < sol.terminals.size(); ++si) {
    const auto& flow = sol.per_source[si];
    for (const NodeId u : sol.terminals) {
      if (u == sol.terminals[si]) continue;
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += flow[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += flow[static_cast<std::size_t>(e)];
      EXPECT_GE(in - out, sol.concurrent_flow - 1e-6)
          << "source " << sol.terminals[si] << " sink " << u;
    }
  }
}

class FleischerVsExact : public ::testing::TestWithParam<int> {};

TEST_P(FleischerVsExact, WithinEpsilonOfSimplex) {
  DiGraph g;
  double exact;
  switch (GetParam()) {
    case 0: g = make_ring(6); exact = 12.0 / 54.0; break;
    case 1: g = make_hypercube(3); exact = 0.25; break;
    case 2: g = make_complete_bipartite(4, 4); exact = 0.4; break;
    case 3: g = make_torus({3, 3, 3}); exact = 1.0 / 9.0; break;
    default: g = make_complete(6); exact = 1.0; break;
  }
  FleischerOptions options;
  options.epsilon = 0.05;
  const auto sol = fleischer_grouped(g, all_nodes(g), options);
  EXPECT_LE(sol.concurrent_flow, exact + 1e-6);
  EXPECT_GE(sol.concurrent_flow, exact * (1.0 - 3 * options.epsilon));
  check_grouped_feasible(g, sol);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FleischerVsExact, ::testing::Range(0, 5));

TEST(Fleischer, TighterEpsilonIsCloser) {
  const DiGraph g = make_hypercube(3);
  FleischerOptions loose;
  loose.epsilon = 0.3;
  FleischerOptions tight;
  tight.epsilon = 0.03;
  const double f_loose = fleischer_grouped(g, all_nodes(g), loose).concurrent_flow;
  const double f_tight = fleischer_grouped(g, all_nodes(g), tight).concurrent_flow;
  EXPECT_GE(f_tight, f_loose - 1e-9);
  EXPECT_GE(f_tight, 0.25 * 0.95);
}

TEST(Fleischer, RejectsBadEpsilon) {
  const DiGraph g = make_ring(4);
  FleischerOptions options;
  options.epsilon = 0.9;
  EXPECT_THROW(fleischer_grouped(g, all_nodes(g), options), InvalidArgument);
}

TEST(Fleischer, PathRestrictedMatchesExactPathLp) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const double exact = solve_path_mcf_exact(g, set).concurrent_flow;
  FleischerOptions options;
  options.epsilon = 0.05;
  const auto sol = fleischer_paths(g, set, options);
  EXPECT_LE(sol.concurrent_flow, exact + 1e-6);
  EXPECT_GE(sol.concurrent_flow, exact * (1.0 - 3 * options.epsilon));
  // Weight shapes align with the candidate sets.
  ASSERT_EQ(sol.weights.size(), set.candidates.size());
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    EXPECT_EQ(sol.weights[k].size(), set.candidates[k].size());
    double total = 0;
    for (const double w : sol.weights[k]) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_GE(total, sol.concurrent_flow - 1e-9);
  }
}

TEST(Fleischer, PathRestrictedRespectsCapacities) {
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = fleischer_paths(g, set);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    for (std::size_t p = 0; p < sol.weights[k].size(); ++p) {
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(Fleischer, TinyTimeLimitStillYieldsFeasibleFlow) {
  // Anytime contract: the phase-boundary cutoff may cost optimality but
  // never feasibility, and at least one phase always runs (the congestion
  // rescale needs some flow to normalize by).
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  FleischerOptions options;
  options.time_limit_s = 1e-9;
  const auto sol = fleischer_paths(g, set, options);
  EXPECT_TRUE(sol.timed_out);
  EXPECT_GT(sol.concurrent_flow, 0.0);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    for (std::size_t p = 0; p < sol.weights[k].size(); ++p) {
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(Fleischer, GroupedTimeLimitKeepsFeasibility) {
  const DiGraph g = make_ring(8);
  FleischerOptions options;
  options.time_limit_s = 1e-9;
  const auto sol = fleischer_grouped(g, all_nodes(g), options);
  EXPECT_TRUE(sol.timed_out);
  check_grouped_feasible(g, sol);
  EXPECT_GT(sol.concurrent_flow, 0.0);
}

// An edge of capacity 0 prices at +inf: neither entry point routes over it,
// and the rest of the fabric still carries the flow.
TEST(Fleischer, ZeroCapacityEdgeCarriesNoFlow) {
  DiGraph g = make_generalized_kautz(12, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  constexpr EdgeId kDead = 5;
  g.set_capacity(kDead, 0.0);
  const double exact = solve_path_mcf_exact(g, set).concurrent_flow;
  EXPECT_NEAR(exact, 0.130435, 1e-6);

  FleischerOptions options;
  const auto paths = fleischer_paths(g, set, options);
  EXPECT_FALSE(paths.timed_out);
  EXPECT_GT(paths.concurrent_flow, 0.0);
  EXPECT_GE(paths.concurrent_flow, exact * (1.0 - 3 * options.epsilon));
  EXPECT_LE(paths.concurrent_flow, exact + 1e-6);
  std::size_t dead_candidates = 0;
  for (std::size_t k = 0; k < set.candidates.size(); ++k) {
    for (std::size_t p = 0; p < set.candidates[k].size(); ++p) {
      const Path& path = set.candidates[k][p];
      if (std::find(path.begin(), path.end(), kDead) == path.end()) continue;
      ++dead_candidates;
      EXPECT_EQ(paths.weights[k][p], 0.0) << "commodity " << k;
    }
  }
  EXPECT_GT(dead_candidates, 0u);

  const auto grouped = fleischer_grouped(g, all_nodes(g), options);
  EXPECT_GT(grouped.concurrent_flow, 0.0);
  for (const auto& fs : grouped.per_source) {
    EXPECT_EQ(fs[static_cast<std::size_t>(kDead)], 0.0);
  }
  check_grouped_feasible(g, grouped);
}

/// The message of the InvalidArgument `solve` throws ("" if none).
template <typename Solve>
std::string invalid_argument_message(Solve solve) {
  try {
    (void)solve();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Fleischer, DemandOnlyZeroCapacityEdgesServeIsRejected) {
  DiGraph g = make_generalized_kautz(12, 4);
  PathSet set = build_disjoint_path_set(g, all_nodes(g));
  constexpr EdgeId kDead = 5;
  g.set_capacity(kDead, 0.0);
  // Leave one commodity only a candidate across the dead edge.
  std::size_t victim = set.candidates.size();
  for (std::size_t k = 0; k < set.candidates.size() && victim == set.candidates.size(); ++k) {
    for (const Path& path : set.candidates[k]) {
      if (std::find(path.begin(), path.end(), kDead) != path.end()) {
        set.candidates[k] = {path};
        victim = k;
        break;
      }
    }
  }
  ASSERT_LT(victim, set.candidates.size());
  const std::string paths_error =
      invalid_argument_message([&] { return fleischer_paths(g, set); });
  EXPECT_NE(paths_error.find("commodity " + std::to_string(victim) + " ("),
            std::string::npos)
      << paths_error;

  // Node 0's only way out has no capacity: nothing reaches (0, 1).
  DiGraph line(3);
  line.add_edge(0, 1, 0.0);
  line.add_edge(1, 2);
  line.add_edge(2, 1);
  line.add_edge(1, 0);
  const std::string grouped_error =
      invalid_argument_message([&] { return fleischer_grouped(line, all_nodes(line)); });
  EXPECT_NE(grouped_error.find("terminal pair (0, 1)"), std::string::npos)
      << grouped_error;
}

TEST(Fleischer, GroupedWithTerminalSubset) {
  const DiGraph g = make_ring(6);
  const auto sol = fleischer_grouped(g, {0, 3});
  // Two disjoint halves of the ring, capacity 1 each: F close to 2.
  EXPECT_GE(sol.concurrent_flow, 2.0 * 0.85);
  EXPECT_LE(sol.concurrent_flow, 2.0 + 1e-6);
}

}  // namespace
}  // namespace a2a
