// Clustered/hybrid fabrics — the §5.5 "ongoing work" configuration: pods of
// accelerators with Tbps-class internal links and Gbps-class external
// direct-connect links.
//
// Sweeps the internal:external bandwidth ratio and shows where the
// bottleneck moves (internal cliques vs external GenKautz), how the optimal
// F responds, and that the generated schedules stay valid end to end.
#include <iostream>
#include <limits>

#include "common/table.hpp"
#include "graph/clustered.hpp"
#include "graph/topologies.hpp"
#include "mcf/bounds.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/executor.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/validate.hpp"

int main() {
  using namespace a2a;
  std::cout << "Clustered fabric: 6 pods x 4 accelerators, external GenKautz"
               " over pods, 2 gateway ports per pod\n\n";
  const DiGraph pods = make_generalized_kautz(6, 2);

  Table table({"internal:external", "F", "1/F (time)", "bound time",
               "bottleneck"});
  for (const double ratio : {0.05, 0.25, 1.0, 16.0, 64.0}) {
    ClusteredOptions options;
    options.num_pods = 6;
    options.accelerators_per_pod = 4;
    options.internal_capacity = ratio;
    options.external_ports_per_pod = 2;
    const auto topo = make_clustered(pods, options);

    DecomposedOptions mcf;
    mcf.exact_master_limit = std::numeric_limits<int>::max();
    const auto sol = solve_decomposed_mcf(topo.graph, all_nodes(topo.graph), mcf);
    // Where does the binding capacity sit? Compare per-family peak loads.
    const auto total = sol.total_edge_flow(topo.graph);
    double internal_util = 0, external_util = 0;
    for (EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
      const Edge& edge = topo.graph.edge(e);
      const double util = total[static_cast<std::size_t>(e)] / edge.capacity;
      if (topo.pod_of(edge.from) == topo.pod_of(edge.to)) {
        internal_util = std::max(internal_util, util);
      } else {
        external_util = std::max(external_util, util);
      }
    }
    table.row()
        .cell(std::to_string(ratio).substr(0, 5) + ":1")
        .cell(sol.concurrent_flow, 4)
        .cell(1.0 / sol.concurrent_flow, 1)
        .cell(alltoall_time_lower_bound(topo.graph), 1)
        .cell(internal_util > external_util - 1e-6 ? "internal" : "external");
  }
  table.print(std::cout);

  // End-to-end sanity at one operating point.
  ClusteredOptions options;
  options.num_pods = 6;
  options.accelerators_per_pod = 4;
  options.internal_capacity = 16.0;
  options.external_ports_per_pod = 2;
  const auto topo = make_clustered(pods, options);
  const auto nodes = all_nodes(topo.graph);
  const auto flows = solve_decomposed_mcf(topo.graph, nodes);
  const LinkSchedule sched =
      unroll_rate_schedule(topo.graph, paths_from_link_flows(topo.graph, flows));
  const auto validation = validate_link_schedule(topo.graph, sched, nodes);
  const auto report = execute_link_schedule(topo.graph, sched, nodes, 720);
  std::cout << "\n24-accelerator schedule: " << sched.transfers.size()
            << " transfers over " << sched.num_steps << " steps, valid="
            << (validation.ok ? "yes" : "no") << ", executed+verified="
            << (report.transpose_verified ? "yes" : "no") << "\n"
            << "\nOnce internal bandwidth is ~16x external, F stops improving:"
               " the external direct-connect topology is the knob that"
               " matters (the §5.5 hybrid-configuration observation).\n";
  return 0;
}
