// Table 1 — HPC vs ML accelerator fabrics.
//
// Prints the qualitative comparison the paper tabulates, then demonstrates
// it quantitatively: the same topology (3x3x3 torus, Cerio constants) run
// with a link-based schedule under the ML model (no NIC forwarding, host
// bottleneck) vs a path-based schedule under the HPC model (NIC forwarding
// exploits the extra 150 vs 100 Gbps).
#include "bench_util.hpp"

#include "graph/augment.hpp"
#include "mcf/fleischer.hpp"

using namespace a2a;
using namespace a2a::bench;

int main() {
  std::cout << "=== Table 1: HPC vs ML accelerator fabrics ===\n\n";
  Table table({"Property", "HPC (Cerio+OMPI)", "ML (CPU/GPU CCL)"});
  table.row().cell("Schedules").cell("Path-based").cell("Link-based");
  table.row().cell("Topology focus").cell("Bisection bandwidth").cell("Node bandwidth");
  table.row().cell("Flow control").cell("Cut-through").cell("Store-and-forward");
  table.row().cell("Injection BW").cell("B = 100 Gbps").cell("B = 100 Gbps");
  table.row().cell("Forwarding BW").cell(">= B (d*b = 150 Gbps)").cell("B (through host)");
  table.print(std::cout);

  std::cout << "\n--- Measured consequence on the 27-node 3x3x3 torus ---\n";
  const DiGraph torus = make_torus({3, 3, 3});
  const Fabric ml = cpu_oneccl_fabric();
  const Fabric hpc = hpc_cerio_fabric();

  DecomposedOptions mcf;
  mcf.exact_master_limit = 0;
  mcf.fptas_epsilon = 0.03;

  // ML model: host bottleneck forces the Fig. 2 augmentation; F -> 2/27.
  const AugmentedGraph aug =
      augment_host_bottleneck(torus, ml.injection_GBps / ml.link_GBps);
  std::vector<NodeId> hosts;
  for (NodeId u = 0; u < 27; ++u) hosts.push_back(aug.host(u));
  const auto link_flows = solve_decomposed_mcf(aug.graph, hosts, mcf);
  UnrollOptions unroll;
  unroll.chunking.max_denominator = 24;
  unroll.slots_per_link = 16;  // few heavy steps: lower sync floor at mid buffers  // keep chunk/QP counts fabric-realistic
  const LinkSchedule link_sched = unroll_rate_schedule(
      aug.graph, paths_from_link_flows(aug.graph, link_flows), unroll);

  // HPC model: NIC forwarding, plain torus; F -> 1/9 (57% higher, §5.2).
  const auto path_flows = solve_decomposed_mcf(torus, all_nodes(torus), mcf);
  ChunkingOptions coarse;
  coarse.max_denominator = 24;
  const PathSchedule path_sched = compile_path_schedule(
      torus, paths_from_link_flows(torus, path_flows), coarse);

  Table results({"Fabric", "Schedule", "F (concurrent rate)",
                 "UB = (N-1)*F*b GB/s", "Sim GB/s @ 256MB buffer"});
  const double buf = 256e6;
  const auto ml_sim =
      simulate_link_schedule(aug.graph, link_sched, buf / 27, 27, ml);
  results.row()
      .cell("ML (no NIC fwd)")
      .cell("link/tsMCF")
      .cell(link_flows.concurrent_flow, 4)
      .cell(26 * link_flows.concurrent_flow * ml.link_GBps, 2)
      .cell(ml_sim.algo_throughput_GBps, 2);
  const auto hpc_sim = simulate_path_schedule(torus, path_sched, buf / 27, 27, hpc);
  results.row()
      .cell("HPC (NIC fwd)")
      .cell("path/MCF-extP")
      .cell(path_flows.concurrent_flow, 4)
      .cell(26 * path_flows.concurrent_flow * hpc.link_GBps, 2)
      .cell(hpc_sim.algo_throughput_GBps, 2);
  results.print(std::cout);
  std::cout << "\nPaper anchor: bottlenecked F = 2/27 = 0.0741 -> 6.01 GB/s UB;"
               " unbottlenecked F = 1/9 = 0.1111 (57% higher).\n";
  return 0;
}
