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
#include "mcf/concurrent_flow.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "runtime/fabric.hpp"

namespace a2a {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const LpSolution& a, const LpSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations) << "pivot sequences diverged";
  EXPECT_TRUE(bit_equal(a.objective, b.objective));
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t j = 0; j < a.values.size(); ++j) {
    EXPECT_TRUE(bit_equal(a.values[j], b.values[j])) << "value " << j;
  }
  EXPECT_EQ(a.basis.variables, b.basis.variables);
  EXPECT_EQ(a.basis.rows, b.basis.rows);
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
    expect_identical(a, b);
  }
}

TEST(LpDeterminism, RepeatedWarmResolvesAreBitIdentical) {
  const DiGraph base = make_generalized_kautz(8, 4);
  const auto nodes = all_nodes(base);
  const LpSolution first =
      solve_lp(build_link_mcf_model(base, TerminalPairs(nodes)));
  ASSERT_TRUE(first.optimal());
  DiGraph g = base;
  g.set_capacity(0, 1e-6);
  g.set_capacity(5, 1e-6);
  // Two primal-infeasible warm bases for the restoration: the capacity
  // collapse alone leaves the old basis dual feasible; a small reward on
  // commodity 0's flows makes it dual infeasible too.
  const LpModel collapsed = build_link_mcf_model(g, TerminalPairs(nodes));
  const LpModel rewarded = [&] {
    LpModel m = collapsed;
    for (int e = 0; e < g.num_edges(); ++e) {
      m.set_objective(link_mcf_var(g.num_edges(), 0, e), 1e-3);
    }
    return m;
  }();
  for (const LpModel* perturbed : {&collapsed, &rewarded}) {
    const LpSolution a = solve_lp(*perturbed, {}, &first.basis);
    const LpSolution b = solve_lp(*perturbed, {}, &first.basis);
    ASSERT_TRUE(a.optimal());
    EXPECT_TRUE(a.warm_started);
    expect_identical(a, b);
  }
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
  expect_identical(a, b);
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
