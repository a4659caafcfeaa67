// Fig. 4 — Throughput of route-based (path) all-to-all schedules vs buffer
// size on the cut-through NIC-forwarding fabric (Cerio/OMPI model).
//
// Schemes per the paper: MCF-extP (ours), ILP-disjoint, EwSP, SSSP, DOR
// (torus only), and the native p2p all-to-all (NCCL /G on N=8, OMPI-alg0 /C
// on the torus). Upper bound = (N-1)*F*b.
#include "bench_util.hpp"

#include "baselines/dor.hpp"
#include "baselines/ewsp.hpp"
#include "baselines/ilp_disjoint.hpp"
#include "baselines/native_p2p.hpp"
#include "baselines/sssp.hpp"
#include "mcf/path_mcf.hpp"
#include "schedule/validate.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

struct Scheme {
  std::string name;
  PathSchedule schedule;
};

std::vector<Scheme> build_schemes(const DiGraph& g,
                                  const std::vector<int>* torus_dims) {
  const auto nodes = all_nodes(g);
  std::vector<Scheme> out;

  DecomposedOptions mcf;
  mcf.exact_master_limit = 16;
  mcf.fptas_epsilon = 0.02;
  const auto flows = solve_decomposed_mcf(g, nodes, mcf);
  out.push_back(
      {"MCF-extP", compile_path_schedule(g, paths_from_link_flows(g, flows), coarse_chunking())});

  const PathSet disjoint = build_disjoint_path_set(g, nodes);
  IlpOptions ilp;
  ilp.lower_bound = 1.0 / flows.concurrent_flow;
  ilp.time_limit_s = 15.0;
  ilp.tolerance = 0.05;
  const auto ilp_result = ilp_single_path(g, disjoint, ilp);
  out.push_back({"ILP-disjoint",
                 single_route_schedule(g, ilp_result.plan.commodities,
                                       ilp_result.plan.routes)});

  const PathSet ewsp = ewsp_path_set(g, nodes, 24);
  std::vector<std::vector<double>> equal;
  for (const auto& cands : ewsp.candidates) equal.emplace_back(cands.size(), 1.0);
  out.push_back({"EwSP", compile_path_schedule(g, ewsp, equal)});

  const auto sssp = sssp_routes(g, nodes);
  out.push_back({"SSSP", single_route_schedule(g, sssp.commodities, sssp.routes)});

  if (torus_dims != nullptr) {
    const auto dor = dor_routes(g, *torus_dims, true);
    out.push_back({"DOR", single_route_schedule(g, dor.commodities, dor.routes)});
  }

  const auto native = native_p2p_routes(g, nodes);
  out.push_back({"native-p2p",
                 single_route_schedule(g, native.commodities, native.routes)});
  return out;
}

void run_topology(const std::string& name, const DiGraph& g,
                  const std::vector<int>* torus_dims, Table& table) {
  const int n = g.num_nodes();
  const Fabric fabric = hpc_cerio_fabric();
  auto schemes = build_schemes(g, torus_dims);
  // Upper bound from the first scheme's load (MCF): 1/maxload * (N-1) * b.
  const double f = 1.0 / schemes[0].schedule.max_link_load(g);
  for (auto& scheme : schemes) {
    A2A_REQUIRE(validate_path_schedule(g, scheme.schedule, all_nodes(g)).ok,
                scheme.name, " failed validation");
  }
  for (const double buf : buffer_sweep(17, 32)) {
    const double shard = buf / n;
    table.row().cell(name).cell(human_bytes(buf)).cell(
        (n - 1) * f * fabric.link_GBps, 2);
    for (auto& scheme : schemes) {
      const auto r = simulate_path_schedule(g, scheme.schedule, shard, n, fabric);
      table.cell(r.algo_throughput_GBps, 2);
    }
    if (torus_dims == nullptr) table.cell("-");
  }
}

}  // namespace

int main() {
  std::cout << "=== Fig. 4: path-based all-to-all throughput (GB/s) ===\n\n";
  Table table({"Topology", "Buffer", "UB", "MCF-extP", "ILP-disjoint", "EwSP",
               "SSSP", "DOR", "native"});
  // Column order note: for N=8 topologies DOR is undefined; the native
  // column then appears in the DOR slot and the last column is '-'.
  run_topology("K4,4 (N=8)", make_complete_bipartite(4, 4), nullptr, table);
  run_topology("Hypercube (N=8)", make_hypercube(3), nullptr, table);
  run_topology("TwistedHC (N=8)", make_twisted_hypercube(3), nullptr, table);
  const std::vector<int> dims{3, 3, 3};
  run_topology("3D Torus (N=27)", make_torus(dims), &dims, table);
  table.print(std::cout);
  std::cout << "\nPaper shape: MCF-extP tracks the bound; DOR/ILP-disjoint are"
               " strong on the torus; SSSP >50% worse at large buffers;"
               " native p2p up to 2.3x worse on K4,4.\n";
  return 0;
}
