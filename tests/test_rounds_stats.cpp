// Round partitioning (§5.5 injection-rate-control fix) and schedule
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/random.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/rounds.hpp"
#include "schedule/stats.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

/// The original analyze_link_schedule: chunks grouped through a std::map,
/// and one (rank, step) map insertion per step of every residence. Kept as
/// the reference the linear-time version must agree with.
LinkScheduleStats reference_link_stats(const LinkSchedule& schedule) {
  LinkScheduleStats stats;
  stats.num_steps = schedule.num_steps;
  stats.num_transfers = static_cast<long long>(schedule.transfers.size());
  stats.step_traffic.assign(static_cast<std::size_t>(schedule.num_steps), 0.0);

  using ChunkKey = std::tuple<NodeId, NodeId, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t>;
  std::map<ChunkKey, std::vector<const Transfer*>> per_chunk;
  for (const Transfer& t : schedule.transfers) {
    stats.step_traffic[static_cast<std::size_t>(t.step - 1)] +=
        t.chunk.size().to_double();
    per_chunk[{t.chunk.src, t.chunk.dst, t.chunk.lo.num(), t.chunk.lo.den(),
               t.chunk.hi.num(), t.chunk.hi.den()}]
        .push_back(&t);
  }
  std::map<std::pair<NodeId, int>, double> scratch;
  for (auto& [key, hops] : per_chunk) {
    std::sort(hops.begin(), hops.end(), [](const Transfer* a, const Transfer* b) {
      return a->step < b->step;
    });
    stats.max_hops = std::max(stats.max_hops, static_cast<int>(hops.size()));
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const NodeId holder = hops[i]->to;
      for (int step = hops[i]->step; step < hops[i + 1]->step; ++step) {
        scratch[{holder, step}] += hops[i]->chunk.size().to_double();
      }
    }
  }
  for (const auto& [key, bytes] : scratch) {
    stats.peak_scratch_per_rank = std::max(stats.peak_scratch_per_rank, bytes);
  }
  return stats;
}

void expect_same_link_stats(const LinkSchedule& schedule) {
  const LinkScheduleStats want = reference_link_stats(schedule);
  const LinkScheduleStats got = analyze_link_schedule(DiGraph(0), schedule);
  EXPECT_EQ(got.num_steps, want.num_steps);
  EXPECT_EQ(got.num_transfers, want.num_transfers);
  EXPECT_EQ(got.max_hops, want.max_hops);
  EXPECT_EQ(got.step_traffic, want.step_traffic);
  // Prefix sums add the same residences in another order.
  EXPECT_NEAR(got.peak_scratch_per_rank, want.peak_scratch_per_rank,
              1e-9 * want.peak_scratch_per_rank);
}

/// A random link schedule: each chunk walks a random rank sequence at
/// strictly increasing steps. `grouped` emits each chunk's hops back to back
/// in step order, as the compilers do; otherwise the transfers are shuffled.
LinkSchedule random_link_schedule(Rng& rng, int chunks, bool grouped) {
  LinkSchedule s;
  s.num_nodes = rng.next_int(2, 12);
  for (int c = 0; c < chunks; ++c) {
    Chunk chunk;
    chunk.src = rng.next_int(0, s.num_nodes);
    chunk.dst = rng.next_int(0, s.num_nodes);
    const int den = rng.next_int(1, 13);
    const int lo = rng.next_int(0, den);
    chunk.lo = Rational(lo, den);
    chunk.hi = Rational(rng.next_int(lo + 1, den + 1), den);
    NodeId at = chunk.src;
    int step = 0;
    const int hops = rng.next_int(1, 8);
    for (int h = 0; h < hops; ++h) {
      step += rng.next_int(1, 6);
      const NodeId to =
          h + 1 == hops ? chunk.dst : static_cast<NodeId>(rng.next_int(0, s.num_nodes));
      s.transfers.push_back(Transfer{chunk, at, to, step});
      at = to;
    }
    s.num_steps = std::max(s.num_steps, step);
  }
  if (!grouped) rng.shuffle(s.transfers);
  return s;
}

TEST(Stats, LinkStatsMatchReferenceOnRandomSchedules) {
  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_same_link_stats(
        random_link_schedule(rng, rng.next_int(0, 200), round % 2 == 0));
  }
}

TEST(Stats, LinkStatsMatchReferenceOnPipelinedUnroll) {
  ToolchainOptions options;
  options.exact_tsmcf_limit = 0;  // decomposed MCF + pipelined unroll
  const GeneratedSchedule generated =
      generate_schedule(make_torus({2, 2, 2}), cpu_oneccl_fabric(), options);
  ASSERT_EQ(generated.kind, ScheduleKind::kLinkUnrolled);
  ASSERT_TRUE(generated.link.has_value());
  const LinkScheduleStats stats =
      analyze_link_schedule(generated.schedule_graph, *generated.link);
  EXPECT_GT(stats.max_hops, 1);
  EXPECT_GT(stats.peak_scratch_per_rank, 0.0);
  expect_same_link_stats(*generated.link);
}

PathSchedule torus_path_schedule() {
  const DiGraph g = make_torus({3, 3, 3});
  DecomposedOptions options;
  options.exact_master_limit = 0;
  options.fptas_epsilon = 0.05;
  const auto flows = solve_decomposed_mcf(g, all_nodes(g), options);
  ChunkingOptions chunking;
  chunking.max_denominator = 12;
  chunking.min_fraction = 1e-3;
  return compile_path_schedule(g, paths_from_link_flows(g, flows), chunking);
}

TEST(Rounds, PartitionPreservesChunkTotals) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 4);
  EXPECT_EQ(rounded.num_rounds, 4);
  long long total = 0;
  for (const auto& round : rounded.rounds) total += round.total_chunks();
  EXPECT_EQ(total, sched.total_chunks());
}

TEST(Rounds, RoundsAreBalanced) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 3);
  long long lo = sched.total_chunks(), hi = 0;
  for (const auto& round : rounded.rounds) {
    lo = std::min(lo, round.total_chunks());
    hi = std::max(hi, round.total_chunks());
  }
  EXPECT_LE(hi - lo, static_cast<long long>(sched.entries.size()));
}

TEST(Rounds, SingleRoundIsIdentity) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 1);
  ASSERT_EQ(rounded.rounds.size(), 1u);
  EXPECT_EQ(rounded.rounds[0].total_chunks(), sched.total_chunks());
  EXPECT_EQ(rounded.rounds[0].entries.size(), sched.entries.size());
}

TEST(Rounds, ReducesPeakConcurrentFlows) {
  const DiGraph g = make_torus({3, 3, 3});
  const PathSchedule sched = torus_path_schedule();
  const Fabric fabric = hpc_cerio_fabric();
  const auto r1 = simulate_rounded_schedule(g, partition_into_rounds(sched, 1),
                                            1e6, 27, fabric);
  const auto r4 = simulate_rounded_schedule(g, partition_into_rounds(sched, 4),
                                            1e6, 27, fabric);
  EXPECT_LT(r4.peak_concurrent_flows, r1.peak_concurrent_flows);
  EXPECT_GT(r4.peak_concurrent_flows, 0);
}

TEST(Rounds, TradeoffVisibleUnderContention) {
  // With a harsh contention model, splitting rounds helps large transfers;
  // with contention disabled, the extra barriers only cost time.
  const DiGraph g = make_torus({3, 3, 3});
  const PathSchedule sched = torus_path_schedule();
  Fabric harsh = hpc_cerio_fabric();
  harsh.qp_knee = 64;
  harsh.qp_penalty = 0.5;
  const double big = 512e6 / 27;
  const auto one = simulate_rounded_schedule(g, partition_into_rounds(sched, 1),
                                             big, 27, harsh);
  const auto eight = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 8), big, 27, harsh);
  EXPECT_LT(eight.seconds, one.seconds);

  Fabric mellow = hpc_cerio_fabric();
  mellow.qp_penalty = 0.0;
  const auto one_m = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 1), big, 27, mellow);
  const auto eight_m = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 8), big, 27, mellow);
  EXPECT_GE(eight_m.seconds, one_m.seconds - 1e-9);
}

TEST(Rounds, RejectsZeroRounds) {
  EXPECT_THROW(partition_into_rounds(PathSchedule{}, 0), InvalidArgument);
}

TEST(Stats, LinkScheduleScratchAndTraffic) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const auto stats = analyze_link_schedule(g, sched);
  EXPECT_EQ(stats.num_steps, 3);
  EXPECT_EQ(stats.num_transfers, static_cast<long long>(sched.transfers.size()));
  // Ring-of-4 all-to-all forwards the opposite-node shards -> some scratch.
  EXPECT_GT(stats.peak_scratch_per_rank, 0.0);
  EXPECT_LE(stats.peak_scratch_per_rank, 4.0);
  EXPECT_EQ(stats.max_hops, 2);  // diameter
  double total_traffic = 0;
  for (const double t : stats.step_traffic) total_traffic += t;
  // Total shard-hops: 8 pairs at distance 1 + 4 pairs at distance 2 = 16.
  EXPECT_NEAR(total_traffic, 16.0, 0.1);
}

TEST(Stats, DirectExchangeNeedsNoScratch) {
  const DiGraph g = make_complete(4);
  LinkSchedule sched;
  sched.num_nodes = 4;
  sched.num_steps = 1;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        sched.transfers.push_back(
            Transfer{Chunk{s, d, Rational(0), Rational(1)}, s, d, 1});
      }
    }
  }
  const auto stats = analyze_link_schedule(g, sched);
  EXPECT_DOUBLE_EQ(stats.peak_scratch_per_rank, 0.0);
  EXPECT_EQ(stats.max_hops, 1);
}

TEST(Stats, PathScheduleSummary) {
  const DiGraph g = make_torus({3, 3, 3});
  const PathSchedule sched = torus_path_schedule();
  const auto stats = analyze_path_schedule(g, sched);
  EXPECT_EQ(stats.num_chunks, sched.total_chunks());
  EXPECT_GE(stats.avg_hops, 1.0);
  EXPECT_LE(stats.max_hops, 6);
  EXPECT_NEAR(stats.max_link_load, 9.0, 0.5);  // ~1/F on the torus
}

}  // namespace
}  // namespace a2a
