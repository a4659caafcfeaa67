// Randomized weighted-demand differential harness (ctest labels
// fuzz;collectives).
//
// Draws random strongly-connected fabrics and random demand matrices —
// uniform, Zipf-skewed, permutations, arbitrary positive weights, and
// degenerate shapes with whole rows zeroed — and cross-checks every solver
// tier of the weighted pipeline against the others:
//   * exact link MCF (eqs. 1-5 with weighted demand rows) as the reference;
//   * decomposed MCF (grouped master LP + combinatorial children);
//   * Fleischer's grouped FPTAS (within its epsilon guarantee);
// then compiles + validates schedules from the decomposed flows against the
// demand matrix, and locks the weight-1 contract down: a unit demand matrix
// must reproduce the historical uniform pipeline bit-for-bit.
//
// A2A_FUZZ_ITERS overrides the instance count for longer soak runs; seeds
// derive from the instance index, so any failure reproduces standalone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <bit>

#include "collectives/collective.hpp"
#include "common/random.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

namespace a2a {
namespace {

long long fuzz_iterations() {
  if (const char* env = std::getenv("A2A_FUZZ_ITERS")) {
    return std::max(1LL, std::atoll(env));
  }
  return 40;
}

/// Strongly connected random fabric: a directed ring plus random chords.
DiGraph random_fabric(Rng& rng) {
  const int nodes = rng.next_int(4, 8);
  DiGraph g(nodes);
  for (int u = 0; u < nodes; ++u) {
    g.add_edge(u, (u + 1) % nodes, 1.0 + rng.next_int(0, 3));
  }
  const int chords = rng.next_int(2, 2 * nodes);
  for (int c = 0; c < chords; ++c) {
    const int u = rng.next_int(0, nodes);
    const int v = rng.next_int(0, nodes);
    if (u != v && g.find_edge(u, v) < 0) {
      g.add_edge(u, v, 1.0 + rng.next_int(0, 3));
    }
  }
  return g;
}

/// Random demand matrix over `n` terminals; `family` picks the shape.
DemandMatrix random_demand(Rng& rng, int n, int family) {
  switch (family) {
    case 0:
      return DemandMatrix::uniform(n);
    case 1:
      return DemandMatrix::zipf(n, 0.3 * rng.next_int(1, 5));
    case 2:
      return DemandMatrix::permutation(n, rng.next_below(1u << 16));
    case 3: {
      // Arbitrary positive weights, some drawn off the chunking grid.
      DemandMatrix m(n, 0.0);
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          const double w = rng.next_below(2) == 0
                               ? rng.next_int(1, 5) / 2.0          // on-grid
                               : 0.25 + 0.1 * rng.next_int(0, 30);  // off-grid
          m.set(s, d, w);
        }
      }
      return m;
    }
    default: {
      // Degenerate: uniform with one or more whole rows silenced (plus
      // scattered zero entries), always keeping at least one positive row.
      DemandMatrix m = DemandMatrix::uniform(n);
      const int silent = rng.next_int(1, n - 1);
      for (int k = 0; k < silent; ++k) {
        const int row = rng.next_int(0, n);
        for (int d = 0; d < n; ++d) {
          if (d != row) m.set(row, d, 0.0);
        }
      }
      for (int hits = rng.next_int(0, n); hits > 0; --hits) {
        const int s = rng.next_int(0, n);
        const int d = rng.next_int(0, n);
        if (s != d) m.set(s, d, 0.0);
      }
      if (m.total() <= 0.0) m.set(0, 1, 1.0);
      return m;
    }
  }
}

/// Per-commodity feasibility of weighted link flows: capacities respected,
/// commodity k delivers >= w_k * F, flow conserved at intermediate nodes,
/// and zero-weight commodities carry nothing.
void check_weighted_feasible(const DiGraph& g, const LinkFlowSolution& sol,
                             const DemandMatrix& demand) {
  const auto total = sol.total_edge_flow(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_LE(total[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-5);
  }
  for (int k = 0; k < sol.pairs.count(); ++k) {
    const auto [s, d] = sol.pairs.nodes(k);
    const double w = demand_weight(&demand, sol.pairs, k);
    const auto& flow = sol.per_commodity[static_cast<std::size_t>(k)];
    double delivered = 0;
    for (const EdgeId e : g.in_edges(d)) {
      delivered += flow[static_cast<std::size_t>(e)];
    }
    for (const EdgeId e : g.out_edges(d)) {
      delivered -= flow[static_cast<std::size_t>(e)];
    }
    if (w <= 0.0) {
      ASSERT_NEAR(delivered, 0.0, 1e-7) << s << "->" << d << " (zero demand)";
      continue;
    }
    ASSERT_GE(delivered, w * sol.concurrent_flow - 1e-5) << s << "->" << d;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == s || u == d) continue;
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += flow[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += flow[static_cast<std::size_t>(e)];
      ASSERT_NEAR(in, out, 1e-5) << "conservation at " << u;
    }
  }
}

TEST(FuzzDemands, SolverTiersAgreeOnRandomDemandMatrices) {
  const long long iters = fuzz_iterations();
  long long degenerate_seen = 0;
  for (long long i = 0; i < iters; ++i) {
    Rng rng(0xDE11A0D5 + static_cast<std::uint64_t>(i));
    const DiGraph g = random_fabric(rng);
    const std::vector<NodeId> terminals = all_nodes(g);
    const int n = g.num_nodes();
    const int family = static_cast<int>(rng.next_below(5));
    const DemandMatrix demand = random_demand(rng, n, family);
    if (family == 4) ++degenerate_seen;
    SCOPED_TRACE(::testing::Message()
                 << "instance " << i << " family " << family << " n=" << n
                 << " positive=" << demand.num_positive());

    // Reference: the exact link MCF with weighted demand rows.
    const LinkFlowSolution exact =
        solve_link_mcf_exact(g, terminals, {}, &demand);
    ASSERT_GT(exact.concurrent_flow, 0.0);
    check_weighted_feasible(g, exact, demand);

    // Decomposed (grouped master LP + combinatorial children) must reach
    // the same optimum: grouping commodities by source loses nothing.
    DecomposedOptions options;
    options.exact_master_limit = std::numeric_limits<int>::max();
    const LinkFlowSolution decomposed =
        solve_decomposed_mcf(g, terminals, options, nullptr, nullptr, &demand);
    ASSERT_NEAR(decomposed.concurrent_flow, exact.concurrent_flow,
                1e-4 * std::max(1.0, exact.concurrent_flow));
    check_weighted_feasible(g, decomposed, demand);

    // Fleischer's grouped FPTAS: feasible (never above the optimum) and
    // within its approximation guarantee.
    FleischerOptions fo;
    fo.epsilon = 0.05;
    const GroupedFlowSolution fptas =
        fleischer_grouped(g, terminals, fo, &demand);
    ASSERT_LE(fptas.concurrent_flow, exact.concurrent_flow * (1.0 + 1e-6));
    ASSERT_GE(fptas.concurrent_flow, exact.concurrent_flow * (1.0 - 0.15));

    // Compile the decomposed flows into a pipelined schedule and validate
    // it against the demand matrix (zero rows must ship zero chunks).
    const auto commodity_paths = paths_from_link_flows(g, decomposed, &demand);
    const LinkSchedule sched = unroll_rate_schedule(g, commodity_paths);
    const ValidationResult validation =
        validate_link_schedule(g, sched, terminals, &demand);
    ASSERT_TRUE(validation.ok)
        << (validation.errors.empty() ? "" : validation.errors.front());
  }
  // The degenerate family must actually fire or the zero-row paths go
  // untested.
  EXPECT_GT(degenerate_seen, 0);
}

// ---- the weight-1 golden contract ------------------------------------------
//
// A non-default workload whose demand lowers to all-ones must take the
// weighted code path (demand pointer non-null everywhere) and still emit
// bit-identical schedules: 1.0 * x is exact in IEEE arithmetic and
// snap_demand(1) == 1 exactly, so any divergence is a real regression.

ToolchainOptions unit_zipf_workload() {
  ToolchainOptions options;
  options.workload.demand.kind = DemandSpec::Kind::kZipf;
  options.workload.demand.zipf_s = 0.0;  // zipf:0 == uniform, bit for bit
  return options;
}

TEST(FuzzDemands, UnitWeightLinkScheduleIsByteIdenticalToDefault) {
  const DiGraph g = make_hypercube(3);
  const Fabric fabric = gpu_mscl_fabric();
  const GeneratedSchedule base = generate_schedule(g, fabric);
  const GeneratedSchedule weighted =
      generate_schedule(g, fabric, unit_zipf_workload());
  ASSERT_TRUE(base.link.has_value());
  ASSERT_TRUE(weighted.link.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(base.concurrent_flow),
            std::bit_cast<std::uint64_t>(weighted.concurrent_flow));
  EXPECT_EQ(link_schedule_to_xml(*base.link),
            link_schedule_to_xml(*weighted.link));
}

/// exact_master_limit picks the pMCF and master solvers: the exact LP at the
/// default, the FPTAS at 0. The weight-1 contract holds on both.
const int kMasterLimits[] = {ToolchainOptions{}.mcf.exact_master_limit, 0};

TEST(FuzzDemands, UnitWeightPathScheduleIsByteIdenticalToDefault) {
  const DiGraph g = make_generalized_kautz(12, 3);
  const Fabric fabric = hpc_cerio_fabric();
  for (const int limit : kMasterLimits) {
    SCOPED_TRACE(::testing::Message() << "exact_master_limit " << limit);
    ToolchainOptions base_options;
    base_options.mcf.exact_master_limit = limit;
    ToolchainOptions weighted_options = unit_zipf_workload();
    weighted_options.mcf.exact_master_limit = limit;
    const GeneratedSchedule base = generate_schedule(g, fabric, base_options);
    const GeneratedSchedule weighted =
        generate_schedule(g, fabric, weighted_options);
    ASSERT_TRUE(base.path.has_value());
    ASSERT_TRUE(weighted.path.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.concurrent_flow),
              std::bit_cast<std::uint64_t>(weighted.concurrent_flow));
    EXPECT_EQ(path_schedule_to_xml(g, *base.path),
              path_schedule_to_xml(g, *weighted.path));
  }
}

TEST(FuzzDemands, UnitWeightUnrolledScheduleIsByteIdenticalToDefault) {
  // The decomposed + unroll link branch (n > exact_tsmcf_limit).
  const DiGraph g = make_hypercube(3);
  Fabric fabric = gpu_mscl_fabric();
  fabric.injection_GBps = 100.0;  // skip augmentation: pure solver diff
  for (const int limit : kMasterLimits) {
    SCOPED_TRACE(::testing::Message() << "exact_master_limit " << limit);
    ToolchainOptions base_options;
    base_options.exact_tsmcf_limit = 4;  // force the decomposed branch
    base_options.mcf.exact_master_limit = limit;
    ToolchainOptions weighted_options = unit_zipf_workload();
    weighted_options.exact_tsmcf_limit = 4;
    weighted_options.mcf.exact_master_limit = limit;
    const GeneratedSchedule base = generate_schedule(g, fabric, base_options);
    const GeneratedSchedule weighted =
        generate_schedule(g, fabric, weighted_options);
    ASSERT_TRUE(base.link.has_value());
    ASSERT_TRUE(weighted.link.has_value());
    EXPECT_EQ(base.kind, ScheduleKind::kLinkUnrolled);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.concurrent_flow),
              std::bit_cast<std::uint64_t>(weighted.concurrent_flow));
    EXPECT_EQ(link_schedule_to_xml(*base.link),
              link_schedule_to_xml(*weighted.link));
  }
}

}  // namespace
}  // namespace a2a
