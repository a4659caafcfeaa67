// End-to-end property sweep across topology families: solve -> compile ->
// validate -> execute -> simulate, asserting the §5.2 relationships hold on
// every graph (not just the hand-picked anchors):
//   * schedules validate and execute correctly (real bytes, transpose);
//   * simulated large-buffer throughput lands within [55%, 102%] of the
//     analytic upper bound (N-1)*F*b for link schedules (pipelining fill /
//     chunk rounding cost the rest) and within [70%, 102%] for path
//     schedules;
//   * the Theorem-1 bound caps F.
#include <gtest/gtest.h>

#include <limits>

#include "graph/topologies.hpp"
#include "mcf/bounds.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/executor.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

namespace a2a {
namespace {

DiGraph family_graph(int index) {
  Rng rng(static_cast<std::uint64_t>(index) * 77 + 5);
  switch (index) {
    case 0: return make_generalized_kautz(9, 3);
    case 1: return make_random_regular(10, 3, rng);
    case 2: return puncture_edges(make_ring(8), 0, rng);
    case 3: return make_xpander(3, 3, rng);
    case 4: return make_torus({3, 4});
    case 5: return make_de_bruijn(2, 3);
    case 6: return puncture_edges(make_torus({3, 3}), 2, rng);
    default: return make_twisted_hypercube(3);
  }
}

class EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(EndToEnd, LinkPipelineDeliversAndPerforms) {
  const DiGraph g = family_graph(GetParam());
  const auto nodes = all_nodes(g);
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  const auto flows = solve_decomposed_mcf(g, nodes, options);
  const double f = flows.concurrent_flow;
  EXPECT_LE(f, concurrent_flow_upper_bound(g) + 1e-6) << g.summary();

  const auto paths = paths_from_link_flows(g, flows);
  const LinkSchedule sched = unroll_rate_schedule(g, paths);
  const auto validation = validate_link_schedule(g, sched, nodes);
  ASSERT_TRUE(validation.ok) << g.summary() << ": "
                             << (validation.errors.empty() ? "" : validation.errors[0]);
  const auto report = execute_link_schedule(g, sched, nodes, 720);
  EXPECT_TRUE(report.transpose_verified);

  Fabric fabric = gpu_mscl_fabric();
  const int n = g.num_nodes();
  const double ub = (n - 1) * f * fabric.link_GBps;
  const auto sim = simulate_link_schedule(g, sched, 512e6 / n, n, fabric);
  EXPECT_LE(sim.algo_throughput_GBps, ub * 1.02) << g.summary();
  EXPECT_GE(sim.algo_throughput_GBps, ub * 0.55) << g.summary();
}

TEST_P(EndToEnd, PathPipelineDeliversAndPerforms) {
  const DiGraph g = family_graph(GetParam());
  const auto nodes = all_nodes(g);
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  const auto flows = solve_decomposed_mcf(g, nodes, options);
  const double f = flows.concurrent_flow;

  const PathSchedule sched =
      compile_path_schedule(g, paths_from_link_flows(g, flows));
  const auto validation = validate_path_schedule(g, sched, nodes);
  ASSERT_TRUE(validation.ok) << g.summary() << ": "
                             << (validation.errors.empty() ? "" : validation.errors[0]);
  const auto report = execute_path_schedule(g, sched, nodes, 720);
  EXPECT_TRUE(report.transpose_verified);

  Fabric fabric = hpc_cerio_fabric();
  fabric.injection_GBps = 1e9;  // isolate the link-bandwidth term
  fabric.qp_penalty = 0.0;      // contention is modelled, tested elsewhere
  fabric.per_chunk_s = 0.0;
  const int n = g.num_nodes();
  const double ub = (n - 1) * f * fabric.link_GBps;
  const auto sim = simulate_path_schedule(g, sched, 2e9 / n, n, fabric);
  EXPECT_LE(sim.algo_throughput_GBps, ub * 1.02) << g.summary();
  EXPECT_GE(sim.algo_throughput_GBps, ub * 0.90) << g.summary();
}

TEST_P(EndToEnd, ScheduleSurvivesXmlRoundTripAndStillExecutes) {
  const DiGraph g = family_graph(GetParam());
  const auto nodes = all_nodes(g);
  const auto flows = solve_decomposed_mcf(g, nodes);
  const LinkSchedule sched =
      unroll_rate_schedule(g, paths_from_link_flows(g, flows));
  // Serialize, parse back, and execute the parsed schedule — integration of
  // xml_io with the runtime.
  const LinkSchedule parsed = link_schedule_from_xml(link_schedule_to_xml(sched));
  const auto report = execute_link_schedule(g, parsed, nodes, 360);
  EXPECT_TRUE(report.transpose_verified);
}

INSTANTIATE_TEST_SUITE_P(Families, EndToEnd, ::testing::Range(0, 8));

TEST(EndToEnd, IterationLimitSurfacesAsStatus) {
  // Two variables coupled through two rows so presolve cannot reduce the
  // model away (a single boxed variable it would solve outright, and the
  // iteration limit would never be consulted).
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  const int r = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const int r2 = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r2, x, 1);
  m.add_coefficient(r2, y, -1);
  SimplexOptions options;
  options.max_iterations = 0;
  EXPECT_EQ(solve_lp(m, options).status, LpStatus::kIterationLimit);
}

}  // namespace
}  // namespace a2a
