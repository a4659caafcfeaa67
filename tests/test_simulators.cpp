// Fabric simulators: asymptotics match the analytic bounds of §5.2 and the
// event-level models bound the barrier-level ones.
#include <gtest/gtest.h>

#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "reference/event_sim.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"

namespace a2a {
namespace {

TEST(SfSimulator, LargeBufferThroughputApproachesUpperBound) {
  const DiGraph g = make_hypercube(3);
  const auto ts = solve_tsmcf_exact(g, 4, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const Fabric fabric = gpu_mscl_fabric();
  // Upper bound (N-1) F b = 7 * 0.25 * 3.125 = 5.47 GB/s.
  const double ub = 7 * 0.25 * fabric.link_GBps;
  const auto big = simulate_link_schedule(g, sched, 256e6 / 8, 8, fabric);
  EXPECT_GT(big.algo_throughput_GBps, 0.93 * ub);
  EXPECT_LE(big.algo_throughput_GBps, ub * 1.02);
}

TEST(SfSimulator, SmallBuffersAreLatencyBound) {
  const DiGraph g = make_hypercube(3);
  const auto ts = solve_tsmcf_exact(g, 4, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const Fabric fabric = gpu_mscl_fabric();
  const auto small = simulate_link_schedule(g, sched, 1024, 8, fabric);
  const auto big = simulate_link_schedule(g, sched, 64e6, 8, fabric);
  EXPECT_LT(small.algo_throughput_GBps, 0.2 * big.algo_throughput_GBps);
  // Latency floor: steps * sync.
  EXPECT_GE(small.seconds, sched.num_steps * fabric.step_sync_s);
}

TEST(SfSimulator, ThroughputMonotoneInBufferSize) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const Fabric fabric = cpu_oneccl_fabric();
  double prev = 0;
  for (double buf = 1 << 13; buf <= (1 << 28); buf *= 16) {
    const auto r = simulate_link_schedule(g, sched, buf / 4, 4, fabric);
    EXPECT_GE(r.algo_throughput_GBps, prev - 1e-9);
    prev = r.algo_throughput_GBps;
  }
}

TEST(SfSimulator, AugmentedEdgeCapacityActsAsBandwidth) {
  // A capacity-4 edge (host link at 100 Gbps over 25 Gbps units) moves bytes
  // 4x faster.
  DiGraph g(2);
  g.add_edge(0, 1, 4.0);
  LinkSchedule sched;
  sched.num_nodes = 2;
  sched.num_steps = 1;
  sched.transfers.push_back(
      Transfer{Chunk{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  Fabric f = cpu_oneccl_fabric();
  f.step_sync_s = 0;
  const auto r = simulate_link_schedule(g, sched, 1e9, 2, f);
  EXPECT_NEAR(r.seconds, 1e9 / (4 * 3.125e9), 1e-6);
}

TEST(EventSim, NoSlowerInformationThanBarrierModel) {
  // Without the per-step barrier, completion can only be earlier (up to the
  // small per-chunk overhead).
  const DiGraph g = make_hypercube(3);
  const auto ts = solve_tsmcf_exact(g, 4, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  Fabric fabric = gpu_mscl_fabric();
  fabric.per_chunk_s = 0.0;
  const double barrier =
      simulate_link_schedule(g, sched, 16e6, 8, fabric).seconds;
  const double event =
      simulate_link_schedule_events(g, sched, 16e6, 8, fabric).seconds;
  EXPECT_LE(event, barrier + 1e-9);
}

TEST(CtSimulator, RespectsInjectionCap) {
  // A path schedule on the 27-node torus: injection 12.5 GB/s bounds
  // throughput at (N-1)m/T <= 12.5 * (N-1)/N... i.e. T >= (N-1)m/injection.
  const DiGraph g = make_torus({3, 3, 3});
  DecomposedOptions opts;
  opts.exact_master_limit = 0;
  opts.fptas_epsilon = 0.05;
  const auto flows = solve_decomposed_mcf(g, all_nodes(g), opts);
  const PathSchedule sched =
      compile_path_schedule(g, paths_from_link_flows(g, flows));
  const Fabric fabric = hpc_cerio_fabric();
  const double shard = 8e6;
  const auto r = simulate_path_schedule(g, sched, shard, 27, fabric);
  EXPECT_GE(r.seconds, 26 * shard / (fabric.injection_GBps * 1e9) - 1e-9);
}

TEST(CtSimulator, QpContentionDegradesManyFlowSchedules) {
  Fabric fabric = hpc_cerio_fabric();
  EXPECT_DOUBLE_EQ(fabric.effective_link_GBps(10), fabric.link_GBps);
  EXPECT_LT(fabric.effective_link_GBps(10000), fabric.link_GBps);
  EXPECT_LE(fabric.effective_link_GBps(1e9), fabric.link_GBps);
  EXPECT_GE(fabric.effective_link_GBps(1e9), 0.25 * fabric.link_GBps);
}

TEST(CtSimulator, EventModelTracksClosedForm) {
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const PathSchedule sched =
      compile_path_schedule(g, paths_from_link_flows(g, flows));
  const Fabric fabric = hpc_cerio_fabric();
  const double shard = 64e6;
  const auto closed = simulate_path_schedule(g, sched, shard, 8, fabric);
  const auto event = simulate_path_schedule_events(g, sched, shard, 8, fabric);
  // Same steady-state regime: within 2.5x of each other at large buffers.
  // (The MCF LP is degenerate, but the primal ratio test breaks degenerate
  // ties deterministically — larger pivot magnitude, then lower basic
  // index — so the chosen optimal vertex, the compiled schedule, and this
  // ratio are stable run over run; measured 2.25x on this fixture.)
  EXPECT_LT(event.seconds, 2.5 * closed.seconds);
  EXPECT_GT(event.seconds, closed.seconds / 2.5);
}

TEST(CtSimulator, CutThroughBeatsStoreAndForwardAtSmallBuffers) {
  // §5.2: path-based schedules win at small buffers because they avoid the
  // per-step global synchronization.
  const DiGraph g = make_torus({3, 3});
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  const auto cpaths = paths_from_link_flows(g, flows);
  const LinkSchedule link_sched = unroll_rate_schedule(g, cpaths);
  const PathSchedule path_sched = compile_path_schedule(g, cpaths);
  const Fabric sf = cpu_oneccl_fabric();
  const Fabric ct = hpc_cerio_fabric();
  const double shard = 64e3 / 9;  // small buffer
  const double t_link = simulate_link_schedule(g, link_sched, shard, 9, sf).seconds;
  const double t_path = simulate_path_schedule(g, path_sched, shard, 9, ct).seconds;
  EXPECT_LT(t_path, t_link);
}

}  // namespace
}  // namespace a2a
