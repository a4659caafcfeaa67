// Failure recovery — the §5.2 punctured-tori story as an operational tool.
//
// A cluster manager watches a 3x3x3 torus; links fail at random; after each
// failure the schedule is regenerated with the decomposed MCF. The point the
// paper makes (Fig. 5 + Fig. 7): regeneration takes seconds, is topology
// agnostic (DOR is undefined on a punctured torus), and keeps throughput
// near the new optimum while SSSP-style repair loses ~30%.
#include <chrono>
#include <iostream>

#include "baselines/sssp.hpp"
#include "bench_helpers_example.hpp"
#include "common/random.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/ct_simulator.hpp"
#include "schedule/validate.hpp"

int main() {
  using namespace a2a;
  DiGraph g = make_torus({3, 3, 3});
  const Fabric fabric = hpc_cerio_fabric();
  Rng rng(7);

  std::cout << "step  topology            regen_s  F (MCF)   MCF GB/s  SSSP GB/s\n";
  for (int failures = 0; failures <= 4; ++failures) {
    if (failures > 0) {
      g = puncture_edges(g, 1, rng);  // one more bidirectional link dies
    }
    const auto nodes = all_nodes(g);
    const auto t0 = std::chrono::steady_clock::now();
    DecomposedOptions options;
    options.exact_master_limit = 0;
    options.fptas_epsilon = 0.03;
    const auto flows = solve_decomposed_mcf(g, nodes, options);
    const PathSchedule sched =
        compile_path_schedule(g, paths_from_link_flows(g, flows));
    const double regen =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    A2A_REQUIRE(validate_path_schedule(g, sched, nodes).ok,
                "regenerated schedule invalid");

    const auto sssp = sssp_routes(g, nodes);
    const PathSchedule sssp_sched =
        example_single_route_schedule(g, sssp.commodities, sssp.routes);

    const double buf = 256e6;
    const auto mcf_sim = simulate_path_schedule(g, sched, buf / 27, 27, fabric);
    const auto sssp_sim =
        simulate_path_schedule(g, sssp_sched, buf / 27, 27, fabric);
    std::printf("%-5d %-19s %-8.2f %-9.4f %-9.2f %.2f\n", failures,
                (std::to_string(g.num_edges()) + " arcs").c_str(), regen,
                flows.concurrent_flow, mcf_sim.algo_throughput_GBps,
                sssp_sim.algo_throughput_GBps);
  }
  std::cout << "\nThe decomposed MCF re-plans in seconds after every failure"
               " and stays ahead of congestion-aware SSSP repair — the"
               " combination Figs. 5 and 7 argue for.\n";
  return 0;
}
