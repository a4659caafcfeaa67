// Schedule compilation (§4): exact tsMCF lowering and the scalable unroller
// both produce validator-clean schedules whose byte counts match the flows,
// and the unroller places every hop exactly where a linear earliest-fit
// scan would.
#include "schedule/compile_link.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "collectives/demand.hpp"
#include "common/random.hpp"
#include "core/api.hpp"
#include "graph/augment.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

TEST(CompileLink, TsMcfScheduleValidates) {
  const DiGraph g = make_hypercube(3);
  const auto ts = solve_tsmcf_exact(g, 4, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const auto result = validate_link_schedule(g, sched, all_nodes(g));
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(sched.num_steps, 4);
}

TEST(CompileLink, TsMcfBytesMatchUtilization) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const double shard = 1000.0;
  const auto bytes = sched.bytes_per_edge_step(g, shard);
  // Per-step peak bytes across links ~ U_t * shard (chunk snapping adds
  // rounding at the 1/7560 level).
  double total_peak = 0;
  for (int t = 0; t < sched.num_steps; ++t) {
    double peak = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      peak = std::max(peak, bytes[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)]);
    }
    total_peak += peak;
  }
  EXPECT_NEAR(total_peak, ts.total_utilization * shard, 0.05 * shard);
}

TEST(CompileLink, PathsFromLinkFlowsCoverEveryCommodity) {
  const DiGraph g = make_torus({3, 3});
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const auto paths = paths_from_link_flows(g, flows);
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(flows.pairs.count()));
  for (const auto& cp : paths) {
    double total = 0;
    for (const auto& wp : cp.paths) {
      EXPECT_TRUE(path_is_valid(g, wp.path, cp.src, cp.dst));
      total += wp.weight;
    }
    EXPECT_NEAR(total, flows.concurrent_flow, 1e-6);
  }
}

TEST(CompileLink, UnrolledScheduleValidates) {
  const DiGraph g = make_torus({3, 3});
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const auto paths = paths_from_link_flows(g, flows);
  const LinkSchedule sched = unroll_rate_schedule(g, paths);
  const auto result = validate_link_schedule(g, sched, all_nodes(g));
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GT(sched.num_steps, 0);
}

TEST(CompileLink, UnrolledThroughputNearOptimal) {
  // Steady state: total per-link chunk-steps ~ 1/F when every step carries
  // at most one chunk slot per link.
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const auto paths = paths_from_link_flows(g, flows);
  const LinkSchedule sched = unroll_rate_schedule(g, paths);
  const double shard = 1.0;
  const auto bytes = sched.bytes_per_edge_step(g, shard);
  double busy = 0;  // sum over steps of per-step max bytes
  for (int t = 0; t < sched.num_steps; ++t) {
    double peak = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      peak = std::max(peak, bytes[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)]);
    }
    busy += peak;
  }
  // The serialized byte-time is within 2x of the fluid optimum 1/F = 4
  // (pipelining fill/drain costs the rest).
  EXPECT_LE(busy, 2.0 / flows.concurrent_flow);
}

/// Reference unroller: the same chunking and round-robin order as
/// unroll_rate_schedule, with the earliest-fit step found by probing every
/// step from the previous hop's step + 1 until one has a free slot.
LinkSchedule unroll_by_linear_scan(const DiGraph& g,
                                   const std::vector<CommodityPaths>& commodities,
                                   const UnrollOptions& options) {
  LinkSchedule sched;
  sched.num_nodes = g.num_nodes();
  struct PendingChunk {
    Chunk chunk;
    const Path* path;
  };
  std::vector<std::vector<Rational>> fraction_sets;
  for (const CommodityPaths& cp : commodities) {
    std::vector<double> weights(cp.paths.size());
    for (std::size_t p = 0; p < cp.paths.size(); ++p) weights[p] = cp.paths[p].weight;
    auto fractions = snap_to_unit_fractions(weights, options.chunking);
    const Rational w_r = snap_demand(cp.demand, options.chunking);
    for (auto& f : fractions) f = f * w_r;
    fraction_sets.push_back(std::move(fractions));
  }
  const Rational unit = fractions_hcf(fraction_sets);
  std::vector<std::vector<PendingChunk>> per_commodity;
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    const CommodityPaths& cp = commodities[c];
    std::vector<PendingChunk> chunks;
    Rational offset(0);
    for (std::size_t p = 0; p < cp.paths.size(); ++p) {
      const Rational& fraction = fraction_sets[c][p];
      if (fraction.is_zero()) continue;
      const Rational count = fraction / unit;
      for (std::int64_t i = 0; i < count.num(); ++i) {
        chunks.push_back(
            PendingChunk{Chunk{cp.src, cp.dst, offset, offset + unit}, &cp.paths[p].path});
        offset = offset + unit;
      }
    }
    per_commodity.push_back(std::move(chunks));
  }
  std::vector<int> slot_budget(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    slot_budget[static_cast<std::size_t>(e)] = std::max(
        1, static_cast<int>(std::lround(g.edge(e).capacity * options.slots_per_link)));
  }
  std::vector<std::vector<int>> usage(static_cast<std::size_t>(g.num_edges()));
  auto slot_free = [&](EdgeId e, int step) {
    auto& u = usage[static_cast<std::size_t>(e)];
    if (static_cast<std::size_t>(step) >= u.size()) u.resize(static_cast<std::size_t>(step) + 1, 0);
    return u[static_cast<std::size_t>(step)] < slot_budget[static_cast<std::size_t>(e)];
  };
  int max_step = 0;
  bool progressed = true;
  for (std::size_t round = 0; progressed; ++round) {
    progressed = false;
    for (auto& chunks : per_commodity) {
      if (round >= chunks.size()) continue;
      progressed = true;
      const PendingChunk& pc = chunks[round];
      int prev = 0;
      for (const EdgeId e : *pc.path) {
        int t = prev + 1;
        while (!slot_free(e, t)) ++t;
        usage[static_cast<std::size_t>(e)][static_cast<std::size_t>(t)]++;
        sched.transfers.push_back(Transfer{pc.chunk, g.edge(e).from, g.edge(e).to, t});
        prev = t;
        max_step = std::max(max_step, t);
      }
    }
  }
  sched.num_steps = max_step;
  return sched;
}

/// Index of the first transfer where the schedules differ, or -1.
long long first_mismatch(const LinkSchedule& a, const LinkSchedule& b) {
  const std::size_t n = std::min(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Transfer& x = a.transfers[i];
    const Transfer& y = b.transfers[i];
    if (!(x.chunk == y.chunk) || x.from != y.from || x.to != y.to || x.step != y.step) {
      return static_cast<long long>(i);
    }
  }
  return a.transfers.size() == b.transfers.size() ? -1 : static_cast<long long>(n);
}

struct UnrollCase {
  std::string name;
  DiGraph graph;
  std::vector<NodeId> terminals;
};

/// Random tori, GenKautz graphs, and host-bottleneck augmentations of both
/// (capacity-4 host links, so those edges hold 4x the slots of the rest).
std::vector<UnrollCase> unroll_cases() {
  Rng rng(0x0A11F17);
  std::vector<UnrollCase> cases;
  for (int i = 0; i < 2; ++i) {
    const std::vector<int> dims = {rng.next_int(2, 5), rng.next_int(2, 4)};
    const DiGraph torus = make_torus(dims);
    const std::string torus_name =
        "torus" + std::to_string(dims[0]) + "x" + std::to_string(dims[1]);
    cases.push_back({torus_name, torus, all_nodes(torus)});
    const int n = rng.next_int(6, 10);
    const int d = rng.next_int(2, 4);
    const DiGraph kautz = make_generalized_kautz(n, d);
    const std::string kautz_name =
        "genkautz" + std::to_string(n) + "_" + std::to_string(d);
    cases.push_back({kautz_name, kautz, all_nodes(kautz)});
    for (const auto& [name, base] : {std::pair{torus_name, torus},
                                     std::pair{kautz_name, kautz}}) {
      const AugmentedGraph aug = augment_host_bottleneck(base, 4.0);
      std::vector<NodeId> hosts(static_cast<std::size_t>(aug.num_hosts));
      for (NodeId h = 0; h < aug.num_hosts; ++h) hosts[static_cast<std::size_t>(h)] = h;
      cases.push_back({name + "+hosts", aug.graph, hosts});
    }
  }
  return cases;
}

TEST(CompileLink, UnrollMatchesLinearScanReference) {
  // The toolchain's chunking grid: skewed demands then move hundreds of
  // thousands of hops, so full steps pile up ahead of most hops.
  const ChunkingOptions chunking = ToolchainOptions{}.chunking;
  for (const UnrollCase& c : unroll_cases()) {
    for (const char* spec : {"uniform", "zipf:0.6", "zipf:1.2", "block:3"}) {
      std::optional<DemandMatrix> demand;
      if (std::string(spec) != "uniform") {
        demand = DemandSpec::parse(spec).instantiate(static_cast<int>(c.terminals.size()));
      }
      const DemandMatrix* dm = demand ? &*demand : nullptr;
      const auto flows = solve_decomposed_mcf(c.graph, c.terminals, {}, nullptr, nullptr, dm);
      const auto paths = paths_from_link_flows(c.graph, flows, dm);
      for (const int slots : {1, 2, 3}) {
        SCOPED_TRACE(c.name + " " + spec + " slots_per_link=" + std::to_string(slots));
        UnrollOptions uo;
        uo.chunking = chunking;
        uo.slots_per_link = slots;
        const LinkSchedule got = unroll_rate_schedule(c.graph, paths, uo);
        const LinkSchedule want = unroll_by_linear_scan(c.graph, paths, uo);
        ASSERT_GT(want.transfers.size(), 0u);
        EXPECT_EQ(got.num_nodes, want.num_nodes);
        EXPECT_EQ(got.num_steps, want.num_steps);
        EXPECT_EQ(got.transfers.size(), want.transfers.size());
        EXPECT_EQ(first_mismatch(got, want), -1);
        EXPECT_TRUE(validate_link_schedule(c.graph, got, c.terminals, dm).ok);
      }
    }
  }
}

TEST(CompilePath, FromExtractionValidates) {
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const auto commodity_paths = paths_from_link_flows(g, flows);
  const PathSchedule sched = compile_path_schedule(g, commodity_paths);
  const auto result = validate_path_schedule(g, sched, all_nodes(g));
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  // Max link load stays near the optimum 1/F.
  EXPECT_LE(sched.max_link_load(g), 1.0 / flows.concurrent_flow + 0.15);
}

TEST(CompilePath, FromPathMcfWeightsValidates) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  const PathSchedule sched = compile_path_schedule(g, set, sol.weights);
  const auto result = validate_path_schedule(g, sched, all_nodes(g));
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GT(sched.total_chunks(), 0);
  EXPECT_EQ(sched.num_nodes, 8);
}

TEST(CompilePath, ChunkCountsMatchWeights) {
  const DiGraph g = make_ring(4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  const PathSchedule sched = compile_path_schedule(g, set, sol.weights);
  const double unit = sched.chunk_unit.to_double();
  for (const RouteEntry& r : sched.entries) {
    EXPECT_NEAR(r.weight, r.num_chunks * unit, 1e-9);
  }
}

}  // namespace
}  // namespace a2a
