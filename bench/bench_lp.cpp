// LP-solver benchmark: sparse revised simplex (solve_lp) vs the dense
// reference (solve_lp_dense) on the Fig. 7 algorithm-runtime LPs — with the
// sparse solver measured in two configurations: Forrest–Tomlin with exact
// ratio tests (presolve, Harris and sectioned pricing off) and the full
// default (FT + presolve + Harris + partial pricing) — plus the Fig. 9-style
// disabled-link sweep comparing two starts of each scenario's pMCF LP: cold
// (the slack basis) and crash (solve_path_mcf_exact, which starts from the
// FPTAS crash).
//
// Usage:
//   bench_lp [--smoke] [--json PATH]
//
// --smoke runs a reduced set and exits nonzero when (a) any two solver legs
// disagree on an objective beyond 1e-6 (dense vs FT-exact vs default), (b)
// the sparse solver fails to beat the dense one on the largest smoke LP,
// (c) the default loses to the FT-exact configuration on that LP (each of
// the two legs timed as the fastest of 5 solves, which must all pivot
// alike), or (d) the sweep's crash legs change an objective or need as
// many simplex iterations as the cold ones — so solver regressions fail CI
// loudly instead of rotting silently.
// The full run checks (a) and (d). --json writes the measurements as a
// BENCH_lp.json trajectory point.
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "mcf/path_mcf.hpp"
#include "mcf/timestepped.hpp"
#include "reference/dense_simplex.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

/// Forrest–Tomlin with presolve, Harris ratio tests and sectioned pricing
/// off: the exact-ratio-test engine the default's extras are measured
/// against.
SimplexOptions ft_exact_options() {
  SimplexOptions o;
  o.presolve = false;
  o.harris_ratio = false;
  o.partial_pricing_threshold = 0;
  return o;
}

struct Comparison {
  std::string name;
  double dense_seconds = 0.0;
  double ft_seconds = 0.0;      ///< FT, exact ratio tests, no presolve.
  double sparse_seconds = 0.0;  ///< full default: FT + presolve + Harris.
  double dense_objective = 0.0;
  double ft_objective = 0.0;
  double sparse_objective = 0.0;
  long long dense_iterations = 0;
  long long ft_iterations = 0;
  long long sparse_iterations = 0;
  /// Every repeat of the FT-exact and default legs took the same pivots.
  bool repeats_match = true;

  [[nodiscard]] double speedup() const {
    return sparse_seconds > 0.0 ? dense_seconds / sparse_seconds : 0.0;
  }
  /// The default's presolve + Harris + pricing extras vs FT-exact.
  [[nodiscard]] double default_vs_ft() const {
    return sparse_seconds > 0.0 ? ft_seconds / sparse_seconds : 0.0;
  }
  [[nodiscard]] bool objectives_match() const {
    const double tol = 1e-6 * std::max(1.0, std::abs(dense_objective));
    return std::abs(dense_objective - ft_objective) <= tol &&
           std::abs(dense_objective - sparse_objective) <= tol;
  }
};

/// `reps` solves of `model`: the first, timed as the fastest of them.
/// Clears `*same_pivots` when a repeat pivots differently from the first.
LpSolution fastest_of(const LpModel& model, const SimplexOptions& options,
                      int reps, bool* same_pivots) {
  LpSolution first = solve_lp(model, options);
  for (int r = 1; r < reps; ++r) {
    const LpSolution again = solve_lp(model, options);
    if (again.iterations != first.iterations) *same_pivots = false;
    first.solve_seconds = std::min(first.solve_seconds, again.solve_seconds);
  }
  return first;
}

/// The dense leg runs once; the FT-exact and default legs `reps` times each.
Comparison compare(const std::string& name, const LpModel& model, int reps) {
  Comparison c;
  c.name = name;
  const LpSolution dense = solve_lp_dense(model);
  c.dense_seconds = dense.solve_seconds;
  c.dense_objective = dense.objective;
  c.dense_iterations = dense.iterations;
  const LpSolution ft =
      fastest_of(model, ft_exact_options(), reps, &c.repeats_match);
  c.ft_seconds = ft.solve_seconds;
  c.ft_objective = ft.objective;
  c.ft_iterations = ft.iterations;
  const LpSolution sparse = fastest_of(model, {}, reps, &c.repeats_match);
  c.sparse_seconds = sparse.solve_seconds;
  c.sparse_objective = sparse.objective;
  c.sparse_iterations = sparse.iterations;
  return c;
}

struct Fig9Sweep {
  int scenarios = 0;
  double cold_seconds = 0.0;
  double crash_seconds = 0.0;  ///< FPTAS crash + LP.
  long long cold_iterations = 0;
  long long crash_iterations = 0;
  bool objectives_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "=== bench_lp: sparse revised simplex vs dense reference ===\n\n";
  std::vector<Comparison> comparisons;
  // The smoke gate's default-vs-FT-exact floor compares ~0.2 s solves, so
  // each leg is the fastest of 5: one descheduling cannot move the ratio.
  const int reps = smoke ? 5 : 1;

  // ---- Fig. 7 runtime LPs: full link MCF on GenKautz(d=4) -----------------
  for (const int n : smoke ? std::vector<int>{8, 10} : std::vector<int>{8, 10, 12}) {
    const DiGraph g = make_generalized_kautz(n, 4);
    const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    comparisons.push_back(
        compare("link_mcf_genkautz" + std::to_string(n), model, reps));
    std::cout << "  " << comparisons.back().name << ": "
              << comparisons.back().speedup() << "x\n";
  }

  // ---- tsMCF LPs (the exact small-fabric branch of Fig. 1) ----------------
  for (const int n : smoke ? std::vector<int>{8} : std::vector<int>{8, 10}) {
    const DiGraph g = n == 8 ? make_hypercube(3) : make_generalized_kautz(n, 4);
    const int steps = diameter(g) + 1;
    const LpModel model =
        build_tsmcf_model(g, steps, TerminalPairs(all_nodes(g)));
    comparisons.push_back(
        compare("tsmcf_n" + std::to_string(n), model, reps));
    std::cout << "  " << comparisons.back().name << ": "
              << comparisons.back().speedup() << "x\n";
  }

  // ---- Fig. 9-style disabled-link sweep: cold vs crash starts -------------
  Fig9Sweep sweep;
  {
    const int n = smoke ? 12 : 27;
    const DiGraph base = make_generalized_kautz(n, 4);
    const auto nodes = all_nodes(base);
    const PathSet candidates = build_disjoint_path_set(base, nodes);
    Rng rng(4242);
    std::vector<DiGraph> scenarios{base};
    for (int k = 1; k <= (smoke ? 3 : 8); ++k) {
      // "Disable" k random links by collapsing their capacity, so every
      // scenario keeps the candidate set (the Fig. 9 bench itself removes
      // arcs and rebuilds).
      DiGraph g = base;
      for (int hit = 0; hit < k; ++hit) {
        const EdgeId e = static_cast<EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
        g.set_capacity(e, 1e-6);
      }
      scenarios.push_back(std::move(g));
    }
    sweep.scenarios = static_cast<int>(scenarios.size());
    for (const DiGraph& g : scenarios) {
      const LpSolution cold = solve_lp(build_path_mcf_model(g, candidates));
      const auto crash = solve_path_mcf_exact(g, candidates);
      sweep.cold_seconds += cold.solve_seconds;
      sweep.crash_seconds += crash.solve_seconds;
      sweep.cold_iterations += cold.iterations;
      sweep.crash_iterations += crash.lp_iterations;
      if (!cold.optimal() ||
          std::abs(cold.objective - crash.concurrent_flow) > 1e-6) {
        sweep.objectives_match = false;
      }
    }
    std::cout << "  fig9_sweep(" << sweep.scenarios << " scenarios): cold "
              << sweep.cold_iterations << " it, crash "
              << sweep.crash_iterations << " it\n\n";
  }

  // ---- report -------------------------------------------------------------
  Table table({"LP", "dense_s", "ft_s", "default_s", "vs_dense", "vs_ft",
               "it", "obj_match"});
  for (const auto& c : comparisons) {
    table.row()
        .cell(c.name)
        .cell(c.dense_seconds, 4)
        .cell(c.ft_seconds, 4)
        .cell(c.sparse_seconds, 4)
        .cell(c.speedup(), 2)
        .cell(c.default_vs_ft(), 2)
        .cell(c.sparse_iterations)
        .cell(c.objectives_match() ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "\nFig. 9-style sweep (" << sweep.scenarios
            << " scenarios): cold " << sweep.cold_seconds << "s/"
            << sweep.cold_iterations << " it, crash " << sweep.crash_seconds
            << "s/" << sweep.crash_iterations << " it, objectives "
            << (sweep.objectives_match ? "match" : "MISMATCH") << "\n";

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_lp\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full") << "\",\n  \"comparisons\": [\n";
    // (object is appended into the trajectory array below)
    for (std::size_t i = 0; i < comparisons.size(); ++i) {
      const auto& c = comparisons[i];
      js << "    {\"lp\": \"" << c.name << "\", \"dense_seconds\": "
         << c.dense_seconds << ", \"ft_seconds\": " << c.ft_seconds
         << ", \"sparse_seconds\": " << c.sparse_seconds
         << ", \"speedup\": " << c.speedup()
         << ", \"default_vs_ft\": " << c.default_vs_ft()
         << ", \"dense_iterations\": " << c.dense_iterations
         << ", \"ft_iterations\": " << c.ft_iterations
         << ", \"sparse_iterations\": " << c.sparse_iterations
         << ", \"objective\": " << c.sparse_objective << "}"
         << (i + 1 < comparisons.size() ? ",\n" : "\n");
    }
    js << "  ],\n  \"fig9_sweep\": {\"scenarios\": " << sweep.scenarios
       << ", \"cold_seconds\": " << sweep.cold_seconds
       << ", \"crash_seconds\": " << sweep.crash_seconds
       << ", \"cold_iterations\": " << sweep.cold_iterations
       << ", \"crash_iterations\": " << sweep.crash_iterations
       << ", \"objectives_match\": " << (sweep.objectives_match ? "true" : "false")
       << "},\n  \"metrics\": " << metrics_snapshot_json() << "\n}\n";
    append_bench_record(json_path, js.str());
  }

  // ---- regression gate ----------------------------------------------------
  bool failed = false;
  for (const auto& c : comparisons) {
    if (!c.objectives_match()) {
      std::cerr << "FAIL: objective mismatch on " << c.name << ": dense "
                << c.dense_objective << " vs sparse " << c.sparse_objective
                << "\n";
      failed = true;
    }
    if (!c.repeats_match) {
      std::cerr << "FAIL: repeated solves of " << c.name
                << " took different pivots\n";
      failed = true;
    }
  }
  if (!sweep.objectives_match) {
    std::cerr << "FAIL: crash-started sweep changed an objective\n";
    failed = true;
  }
  if (sweep.crash_iterations >= sweep.cold_iterations) {
    std::cerr << "FAIL: crash starts took no fewer simplex iterations ("
              << sweep.crash_iterations << ") than cold starts ("
              << sweep.cold_iterations << ")\n";
    failed = true;
  }
  if (smoke) {
    // Perf gate on the slowest dense LP measured: the sparse solver must
    // win decisively there (it wins by >5x in practice; 1.5x absorbs CI
    // noise), and the default must not LOSE to the FT-exact configuration
    // (0.9x absorbs what noise the fastest-of-5 legs keep).
    const auto big = std::max_element(
        comparisons.begin(), comparisons.end(),
        [](const Comparison& a, const Comparison& b) {
          return a.dense_seconds < b.dense_seconds;
        });
    if (big != comparisons.end() && big->speedup() < 1.5) {
      std::cerr << "FAIL: sparse speedup " << big->speedup()
                << "x below the 1.5x smoke floor on " << big->name << "\n";
      failed = true;
    }
    if (big != comparisons.end() && big->default_vs_ft() < 0.9) {
      std::cerr << "FAIL: default vs FT-exact " << big->default_vs_ft()
                << "x below the 0.9x smoke floor on " << big->name << "\n";
      failed = true;
    }
  }
  if (smoke) {
    // Observability overhead gate: with metrics enabled, a smoke LP must
    // solve within 3% of the runtime-disabled path (plus a 20 ms absolute
    // floor so timer noise on sub-millisecond solves cannot trip the gate).
    // Min-of-reps on both sides filters scheduler jitter.
    const DiGraph g = make_generalized_kautz(10, 4);
    const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    const auto min_solve_seconds = [&](int reps) {
      double best = 1e30;
      for (int r = 0; r < reps; ++r) {
        best = std::min(best, solve_lp(model).solve_seconds);
      }
      return best;
    };
    (void)min_solve_seconds(1);  // warm code and allocator before either leg
    obs::set_metrics_enabled(false);
    const double disabled_min = min_solve_seconds(5);
    obs::set_metrics_enabled(true);
    const double enabled_min = min_solve_seconds(5);
    const double limit = std::max(disabled_min * 1.03, disabled_min + 0.02);
    std::cout << "metrics overhead: disabled " << disabled_min
              << "s, enabled " << enabled_min << "s (limit " << limit
              << "s)\n";
    if (enabled_min > limit) {
      std::cerr << "FAIL: metrics-enabled solve (" << enabled_min
                << "s) exceeds the overhead limit (" << limit << "s)\n";
      failed = true;
    }
  }
  if (failed) return 1;
  std::cout << (smoke ? "\nsmoke OK\n" : "\nok\n");
  return 0;
}
