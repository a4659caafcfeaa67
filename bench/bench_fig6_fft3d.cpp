// Fig. 6 — 3D FFT time (27 processes, 32 threads each) on the 3x3x3 torus
// and an edge-punctured torus, for grid widths 729 and 1296.
//
// Per the paper's slab decomposition, each bar splits into (1) 2D FFTs +
// pack, (2) all-to-all, (3) unpack + 1D FFTs. Compute bands are calibrated
// from a real sample FFT; the all-to-all band is the cut-through simulator
// running each scheme's path schedule on 229.6 MB (729) / 1.29 GB (1296)
// per-rank buffers.
#include "bench_util.hpp"

#include "baselines/dor.hpp"
#include "baselines/ewsp.hpp"
#include "baselines/ilp_disjoint.hpp"
#include "baselines/native_p2p.hpp"
#include "baselines/sssp.hpp"
#include "mcf/path_mcf.hpp"
#include "workloads/fft3d.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

std::vector<std::pair<std::string, PathSchedule>> build_schemes(
    const DiGraph& g, bool torus_dor) {
  const auto nodes = all_nodes(g);
  std::vector<std::pair<std::string, PathSchedule>> out;

  const PathSet ewsp = ewsp_path_set(g, nodes, 24);
  std::vector<std::vector<double>> equal;
  for (const auto& cands : ewsp.candidates) equal.emplace_back(cands.size(), 1.0);
  out.emplace_back("EwSP", compile_path_schedule(g, ewsp, equal));

  const auto native = native_p2p_routes(g, nodes);
  out.emplace_back("OMPI",
                   single_route_schedule(g, native.commodities, native.routes));

  if (torus_dor) {
    const auto dor = dor_routes(g, {3, 3, 3}, true);
    out.emplace_back("DOR",
                     single_route_schedule(g, dor.commodities, dor.routes));
  }

  const auto sssp = sssp_routes(g, nodes);
  out.emplace_back("SSSP",
                   single_route_schedule(g, sssp.commodities, sssp.routes));

  DecomposedOptions mcf;
  mcf.exact_master_limit = 0;
  mcf.fptas_epsilon = 0.03;
  const auto flows = solve_decomposed_mcf(g, nodes, mcf);
  out.emplace_back("MCF-extP",
                   compile_path_schedule(g, paths_from_link_flows(g, flows), coarse_chunking()));

  const PathSet disjoint = build_disjoint_path_set(g, nodes);
  IlpOptions ilp;
  ilp.lower_bound = 1.0 / flows.concurrent_flow;
  ilp.tolerance = 0.1;
  ilp.time_limit_s = 8.0;
  const auto ilp_result = ilp_single_path(g, disjoint, ilp);
  out.emplace_back("ILP-disjoint",
                   single_route_schedule(g, ilp_result.plan.commodities,
                                         ilp_result.plan.routes));
  return out;
}

void run_case(const std::string& label, const DiGraph& g, bool torus_dor,
              Table& table) {
  const Fabric fabric = hpc_cerio_fabric();
  const int n = g.num_nodes();
  for (auto& [name, sched] : build_schemes(g, torus_dor)) {
    for (const int grid : {729, 1296}) {
      const auto breakdown = model_fft3d_time(
          grid, n, 32,
          [&](double buffer_bytes) {
            return simulate_path_schedule(g, sched, buffer_bytes / n, n, fabric)
                .seconds;
          },
          48);
      table.row()
          .cell(label)
          .cell(static_cast<long long>(grid))
          .cell(name)
          .cell(breakdown.fft2d_pack_s, 4)
          .cell(breakdown.alltoall_s, 4)
          .cell(breakdown.unpack_fft1d_s, 4)
          .cell(breakdown.total(), 4);
    }
  }
}

}  // namespace

int main() {
  std::cout << "=== Fig. 6: 3D FFT times (N=27 ranks, 32 threads each; "
               "seconds) ===\n\n";
  Table table({"Topology", "Grid", "Scheme", "2D-FFT+pack", "all-to-all",
               "unpack+1D-FFT", "total"});
  run_case("3D Torus", make_torus({3, 3, 3}), true, table);
  Rng rng(2024);
  run_case("edge-punctured", puncture_edges(make_torus({3, 3, 3}), 3, rng),
           false, table);
  table.print(std::cout);
  std::cout << "\nPaper shape: MCF-extP cuts total FFT time up to ~20% vs"
               " SSSP (14.9% on the punctured torus); compute bands are"
               " schedule-independent.\n";
  return 0;
}
