// Clustered/hybrid configurations (§5.5 extension): the internal/external
// bandwidth imbalance flows straight through the MCF toolchain.
#include "graph/clustered.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/bounds.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/executor.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

ClusteredOptions small_options() {
  ClusteredOptions o;
  o.num_pods = 4;
  o.accelerators_per_pod = 3;
  o.internal_capacity = 8.0;
  o.external_ports_per_pod = 2;
  return o;
}

TEST(Clustered, ShapeAndConnectivity) {
  const auto topo = make_clustered(make_ring(4), small_options());
  EXPECT_EQ(topo.graph.num_nodes(), 12);
  EXPECT_TRUE(is_strongly_connected(topo.graph));
  EXPECT_EQ(topo.pod_of(topo.accelerator(2, 1)), 2);
  // Intra-pod links carry the internal capacity.
  const EdgeId internal =
      topo.graph.find_edge(topo.accelerator(0, 0), topo.accelerator(0, 1));
  ASSERT_GE(internal, 0);
  EXPECT_DOUBLE_EQ(topo.graph.edge(internal).capacity, 8.0);
}

TEST(Clustered, GatewaysSpreadAcrossExternalPorts) {
  const auto topo = make_clustered(make_ring(4), small_options());
  // Each pod has 4 external arcs (2 out + 2 in on the ring); with 2 gateway
  // ports, both gateways of each pod touch external links.
  for (int pod = 0; pod < 4; ++pod) {
    int gateways_used = 0;
    for (int a = 0; a < 2; ++a) {
      const NodeId u = topo.accelerator(pod, a);
      bool external = false;
      for (const EdgeId e : topo.graph.out_edges(u)) {
        if (topo.pod_of(topo.graph.edge(e).to) != pod) external = true;
      }
      for (const EdgeId e : topo.graph.in_edges(u)) {
        if (topo.pod_of(topo.graph.edge(e).from) != pod) external = true;
      }
      if (external) ++gateways_used;
    }
    EXPECT_EQ(gateways_used, 2) << "pod " << pod;
  }
}

TEST(Clustered, ExternalBandwidthBoundsAllToAll) {
  // With huge internal capacity, the bisection of external links rules:
  // every inter-pod pair's flow crosses pod boundaries, so F is set by the
  // external topology alone. The aggregate bound makes that exact.
  const auto topo = make_clustered(make_ring(4), small_options());
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  const auto sol = solve_decomposed_mcf(topo.graph, all_nodes(topo.graph), options);
  EXPECT_LE(sol.concurrent_flow,
            concurrent_flow_upper_bound(topo.graph) + 1e-6);
  // External traffic: 9 destinations in other pods per source, through 4
  // external out-arcs of capacity 1 shared by 3 accelerators... the simple
  // per-pod cut: 12 * ... keep it as a monotonicity property instead:
  // doubling the internal capacity cannot change F once externals bind.
  ClusteredOptions richer = small_options();
  richer.internal_capacity = 16.0;
  const auto topo2 = make_clustered(make_ring(4), richer);
  const auto sol2 = solve_decomposed_mcf(topo2.graph, all_nodes(topo2.graph), options);
  EXPECT_NEAR(sol.concurrent_flow, sol2.concurrent_flow, 1e-5);
}

TEST(Clustered, StarvedInternalFabricBindsInstead) {
  ClusteredOptions starved = small_options();
  starved.internal_capacity = 0.05;  // internal links weaker than external
  const auto topo = make_clustered(make_ring(4), starved);
  DecomposedOptions options;
  options.exact_master_limit = std::numeric_limits<int>::max();
  const auto rich = make_clustered(make_ring(4), small_options());
  const double f_starved =
      solve_decomposed_mcf(topo.graph, all_nodes(topo.graph), options).concurrent_flow;
  const double f_rich =
      solve_decomposed_mcf(rich.graph, all_nodes(rich.graph), options).concurrent_flow;
  EXPECT_LT(f_starved, f_rich);
}

TEST(Clustered, SchedulesCompileValidateAndExecute) {
  const auto topo = make_clustered(make_generalized_kautz(4, 2), small_options());
  const auto nodes = all_nodes(topo.graph);
  const auto flows = solve_decomposed_mcf(topo.graph, nodes);
  const LinkSchedule sched =
      unroll_rate_schedule(topo.graph, paths_from_link_flows(topo.graph, flows));
  ASSERT_TRUE(validate_link_schedule(topo.graph, sched, nodes).ok);
  const auto report = execute_link_schedule(topo.graph, sched, nodes, 720);
  EXPECT_TRUE(report.transpose_verified);
}

TEST(Clustered, RejectsBadOptions) {
  ClusteredOptions bad = small_options();
  bad.external_ports_per_pod = 99;
  EXPECT_THROW(make_clustered(make_ring(4), bad), InvalidArgument);
  EXPECT_THROW(make_clustered(make_ring(3), small_options()), InvalidArgument);
}

}  // namespace
}  // namespace a2a
