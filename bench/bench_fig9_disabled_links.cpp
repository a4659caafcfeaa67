// Fig. 9 — GenKautz N=81 d=8 (648 arcs) with 0..60 randomly disabled links;
// all-to-all time normalized by link-based MCF.
//
// Schemes: link MCF (normalizer), pMCF-disjoint, SSSP, ILP-disjoint at 10%
// tolerance — exactly the Fig. 9 line-up.
#include "bench_util.hpp"

#include <algorithm>

#include "baselines/ilp_disjoint.hpp"
#include "baselines/sssp.hpp"
#include "mcf/fleischer.hpp"
#include "mcf/path_mcf.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

/// The same Fig. 9 question asked of the exact LP: "disable" links by
/// collapsing their capacity so the pMCF keeps its candidate set, then
/// solve each scenario two ways: cold from the slack basis, and from the
/// FPTAS crash (solve_path_mcf_exact), the start every production pMCF
/// solve takes, failover's exact re-solves included.
void exact_resolve_sweep() {
  std::cout << "\n--- exact pMCF re-solve sweep, GenKautz(27, d=4),"
               " cold / crash starts ---\n";
  const DiGraph base = make_generalized_kautz(27, 4);
  const auto nodes = all_nodes(base);
  const PathSet candidates = build_disjoint_path_set(base, nodes);
  Rng rng(777);
  Table table({"disabled", "cold_s", "cold_it", "crash_s", "crash_it", "F"});
  double cold_seconds = 0.0;
  double crash_seconds = 0.0;
  long long cold_iterations = 0;
  long long crash_iterations = 0;
  bool objectives_match = true;
  DiGraph g = base;
  // Past ~5 dead arcs (at this scale) some pair loses every disjoint
  // candidate and F collapses to zero (the LP goes trivial), so the sweep
  // stays in the regime the paper plots: schedules surviving the failures.
  for (const int disabled : {0, 1, 2, 3, 4}) {
    while (true) {
      int hit = 0;
      for (const Edge& e : g.edges()) hit += e.capacity < 1e-3 ? 1 : 0;
      if (hit >= disabled) break;
      g.set_capacity(static_cast<EdgeId>(rng.next_below(
                         static_cast<std::uint64_t>(g.num_edges()))),
                     1e-6);
    }
    const LpSolution cold = solve_lp(build_path_mcf_model(g, candidates));
    const auto crash = solve_path_mcf_exact(g, candidates);
    cold_seconds += cold.solve_seconds;
    crash_seconds += crash.solve_seconds;
    cold_iterations += cold.iterations;
    crash_iterations += crash.lp_iterations;
    if (std::abs(cold.objective - crash.concurrent_flow) > 1e-6) {
      objectives_match = false;
    }
    table.row()
        .cell(static_cast<long long>(disabled))
        .cell(cold.solve_seconds, 4)
        .cell(cold.iterations)
        .cell(crash.solve_seconds, 4)
        .cell(crash.lp_iterations)
        .cell(crash.concurrent_flow, 4);
  }
  table.print(std::cout);
  std::cout << "totals: cold " << cold_seconds << "s/" << cold_iterations
            << " it, crash " << crash_seconds << "s/" << crash_iterations
            << " it, objectives "
            << (objectives_match ? "match" : "MISMATCH") << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Fig. 9: GenKautz(81, d=8) with disabled links, "
               "normalized all-to-all time ===\n\n";
  const DiGraph base = make_generalized_kautz(81, 8);
  std::cout << base.summary() << "\n\n";
  Table table({"disabled", "LinkMCF", "pMCF-disjoint", "SSSP",
               "ILP-disjoint(10%)"});
  Rng rng(4242);
  for (const int disabled : {0, 10, 20, 30, 40, 50, 60}) {
    const DiGraph g =
        disabled == 0 ? base : disable_random_arcs(base, disabled, rng);
    const auto nodes = all_nodes(g);

    FleischerOptions tight;
    tight.epsilon = 0.02;
    const double f_grouped = fleischer_grouped(g, nodes, tight).concurrent_flow;

    FleischerOptions path_eps;
    path_eps.epsilon = 0.03;
    const PathSet disjoint = build_disjoint_path_set(g, nodes);
    const double f_pmcf = fleischer_paths(g, disjoint, path_eps).concurrent_flow;
    // Normalize by the best feasible flow found (the true optimum dominates
    // both approximations), keeping ratios >= ~1.
    const double t_mcf = 1.0 / std::max(f_grouped, f_pmcf);
    const double t_pmcf = 1.0 / f_pmcf;

    const double t_sssp = sssp_routes(g, nodes).max_link_load(g);

    IlpOptions ilp;
    ilp.time_limit_s = 15.0;
    ilp.tolerance = 0.10;
    ilp.lower_bound = t_mcf;
    const double t_ilp = ilp_single_path(g, disjoint, ilp).max_load;

    table.row()
        .cell(static_cast<long long>(disabled))
        .cell(1.0, 3)
        .cell(t_pmcf / t_mcf, 3)
        .cell(t_sssp / t_mcf, 3)
        .cell(t_ilp / t_mcf, 3);
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: MCF/pMCF stay near 1.0 as links fail; SSSP"
               " degrades to ~1.4-1.8x; ILP-disjoint(10%) tracks MCF but"
               " cannot scale in N.\n";
  exact_resolve_sweep();
  return 0;
}
