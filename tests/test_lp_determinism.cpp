// Determinism regression tests: the same instance must produce bit-identical
// pivot sequences, objectives, values, and LpBasis exports run after run —
// and for the decomposed solver and the failover precompute whether their
// loops run on one thread or across the shared pool, alone or next to
// concurrent solves — pinning the deterministic tie-breaking and the
// deterministic partial-pricing cursor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "failover/manager.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "lp/simplex.hpp"
#include "lp_same_solve.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "runtime/fabric.hpp"

namespace a2a {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(LpDeterminism, RepeatedColdSolvesAreBitIdentical) {
  const DiGraph gk = make_generalized_kautz(10, 4);
  const DiGraph hc = make_hypercube(3);
  const std::vector<LpModel> models = {
      build_link_mcf_model(gk, TerminalPairs(all_nodes(gk))),
      build_tsmcf_model(hc, diameter(hc) + 1, TerminalPairs(all_nodes(hc))),
  };
  for (const LpModel& model : models) {
    const LpSolution a = solve_lp(model);
    const LpSolution b = solve_lp(model);
    ASSERT_TRUE(a.optimal());
    EXPECT_TRUE(same_solve(a, b));
  }
}

TEST(LpDeterminism, RepeatedWarmResolvesAreBitIdentical) {
  const DiGraph base = make_generalized_kautz(8, 4);
  const auto nodes = all_nodes(base);
  const LpModel healthy = build_link_mcf_model(base, TerminalPairs(nodes));
  const LpSolution first = solve_lp(healthy);
  ASSERT_TRUE(first.optimal());
  // A capacity collapse leaves the old basis primal infeasible: rejected,
  // so the warm re-solve is the cold solve.
  DiGraph g = base;
  g.set_capacity(0, 1e-6);
  g.set_capacity(5, 1e-6);
  const LpModel collapsed = build_link_mcf_model(g, TerminalPairs(nodes));
  const LpSolution cold = solve_lp(collapsed);
  for (int run = 0; run < 2; ++run) {
    const LpSolution warm = solve_lp(collapsed, {}, &first.basis);
    ASSERT_TRUE(warm.optimal());
    EXPECT_FALSE(warm.warm_started);
    EXPECT_TRUE(same_solve(warm, cold));
  }
  // A small reward on commodity 0's flows leaves it primal feasible but
  // dual infeasible, the crash start's situation: adopted, then phase 2.
  LpModel rewarded = healthy;
  for (int e = 0; e < base.num_edges(); ++e) {
    rewarded.set_objective(link_mcf_var(base.num_edges(), 0, e), 1e-3);
  }
  const LpSolution a = solve_lp(rewarded, {}, &first.basis);
  const LpSolution b = solve_lp(rewarded, {}, &first.basis);
  ASSERT_TRUE(a.optimal());
  EXPECT_TRUE(a.warm_started);
  EXPECT_GT(a.iterations, 0);
  EXPECT_TRUE(same_solve(a, b));
}

TEST(LpDeterminism, PartialPricingCursorIsDeterministic) {
  // Force sectioned pricing onto a model that would not normally trigger it
  // and pin that the cursor state keeps runs identical.
  const DiGraph g = make_generalized_kautz(10, 4);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  SimplexOptions o;
  o.partial_pricing_threshold = 64;  // far below this model's column count
  const LpSolution a = solve_lp(model, o);
  const LpSolution b = solve_lp(model, o);
  ASSERT_TRUE(a.optimal());
  EXPECT_TRUE(same_solve(a, b));
  // And sectioned pricing must agree with full pricing on the objective.
  SimplexOptions full;
  full.partial_pricing_threshold = 0;
  const LpSolution c = solve_lp(model, full);
  EXPECT_NEAR(a.objective, c.objective,
              1e-7 * std::max(1.0, std::abs(c.objective)));
}

/// The default GenKautz(12,4) decomposed solve.
LinkFlowSolution gk12_solve() {
  const DiGraph g = make_generalized_kautz(12, 4);
  return solve_decomposed_mcf(g, all_nodes(g));
}

/// The one-thread reference: issued from a task of the shared pool, the
/// solve's child loop runs inline on that worker.
LinkFlowSolution one_thread_reference() {
  LinkFlowSolution out;
  ThreadPool::shared().parallel_for(
      1, [&](std::size_t) { out = gk12_solve(); });
  return out;
}

void expect_identical(const LinkFlowSolution& a, const LinkFlowSolution& b) {
  EXPECT_TRUE(bit_equal(a.concurrent_flow, b.concurrent_flow));
  ASSERT_EQ(a.per_commodity.size(), b.per_commodity.size());
  for (std::size_t k = 0; k < a.per_commodity.size(); ++k) {
    const auto& fa = a.per_commodity[k];
    const auto& fb = b.per_commodity[k];
    ASSERT_EQ(fa.size(), fb.size()) << "commodity " << k;
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa.edges()[i], fb.edges()[i]);
      EXPECT_TRUE(bit_equal(fa.values()[i], fb.values()[i]));
    }
  }
}

TEST(LpDeterminism, DecomposedSolveIsThreadCountInvariant) {
  const LinkFlowSolution one = one_thread_reference();
  const LinkFlowSolution many = gk12_solve();
  expect_identical(one, many);
}

/// Precomputes GenKautz(12,3)'s failure domain and returns, per signature,
/// the envelope the library stores for it ("" when none). With
/// `one_thread`, precompute() is issued from a task of the shared pool, so
/// its loop — crash-started LP solves of each degraded fabric — runs inline
/// on that worker.
std::vector<std::string> precomputed_envelopes(bool one_thread) {
  FailoverManager mgr(make_generalized_kautz(12, 3), hpc_cerio_fabric());
  const std::vector<FailureSignature> domain = mgr.enumerate_domain();
  if (one_thread) {
    ThreadPool::shared().parallel_for(
        1, [&](std::size_t) { (void)mgr.precompute(domain); });
  } else {
    (void)mgr.precompute(domain);
  }
  std::vector<std::string> out;
  for (const FailureSignature& sig : domain) {
    const auto view = mgr.library().lookup_artifact(
        failover_fingerprint(mgr.base_fingerprint(), sig));
    out.emplace_back(view ? view->envelope : std::string_view{});
  }
  return out;
}

TEST(LpDeterminism, FailoverPrecomputeIsThreadCountInvariant) {
  const std::vector<std::string> one = precomputed_envelopes(true);
  const std::vector<std::string> many = precomputed_envelopes(false);
  ASSERT_EQ(one.size(), many.size());
  std::size_t stored = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i] == many[i]) << "signature " << i;
    if (!one[i].empty()) ++stored;
  }
  EXPECT_GT(stored, 0u);
}

/// The process's thread count from /proc/self/status (-1 if unreadable).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(LpDeterminism, ConcurrentSolvesShareOnePool) {
  // Concurrent solves queue their child loops on the one shared pool, so
  // the process never holds more threads than before plus the callers and
  // the sampler — however many cores each solve could use on its own.
  const LinkFlowSolution reference = one_thread_reference();
  const int baseline = process_threads();
  if (baseline < 0) GTEST_SKIP() << "no /proc/self/status";
  constexpr int kCallers = 8;
  constexpr int kRounds = 4;
  std::atomic<bool> done{false};
  int peak = baseline;
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak, process_threads());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::vector<LinkFlowSolution>> results(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&results, c] {
      for (int r = 0; r < kRounds; ++r) {
        results[c].push_back(gk12_solve());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  done.store(true);
  sampler.join();
  for (const auto& per_caller : results) {
    for (const LinkFlowSolution& r : per_caller) expect_identical(reference, r);
  }
  RecordProperty("baseline_threads", baseline);
  RecordProperty("sampled_max_threads", peak);
  EXPECT_LE(peak, baseline + kCallers + 1)
      << "baseline " << baseline << " threads, sampled maximum " << peak;
}

}  // namespace
}  // namespace a2a
