// Failure-domain fallback library + deadline-bounded re-scheduling.
//
// Covers the offline half (signature algebra, domain enumeration, degraded
// views), the online ladder (precomputed hit -> exact re-solve -> FPTAS ->
// degraded reroute), and the contract every rung shares: whatever is served
// validates against the DEGRADED topology. Ends with a fault-injection
// stream of failures and restorations — the miniature of bench_failover.
#include "failover/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "common/random.hpp"
#include "failover/failure_domain.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/path_mcf.hpp"
#include "obs/metrics.hpp"
#include "runtime/fabric.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

namespace fs = std::filesystem;

Fabric forwarding_fabric() { return hpc_cerio_fabric(); }

// ---------------------------------------------------------- signatures ---

TEST(FailureSignature, NormalizeToStringParseRoundtrip) {
  const DiGraph g = make_ring(6);
  FailureSignature sig;
  sig.edges = {7, 3, 7};
  sig.nodes = {2};
  sig.normalize();
  EXPECT_EQ(sig.edges, (std::vector<EdgeId>{3, 7}));
  EXPECT_EQ(sig.to_string(), "e3+e7+n2");
  EXPECT_EQ(FailureSignature{}.to_string(), "healthy");

  const FailureSignature parsed = FailureSignature::parse("e7,e3,n2", g);
  EXPECT_TRUE(parsed == sig);
  EXPECT_TRUE(FailureSignature::parse(sig.to_string(), g) == sig);
  EXPECT_TRUE(FailureSignature::parse("healthy", g).empty());
  EXPECT_THROW((void)FailureSignature::parse("x3", g), Error);
  EXPECT_THROW((void)FailureSignature::parse("e999", g), Error);
  EXPECT_THROW((void)FailureSignature::parse("e", g), Error);
}

TEST(FailureSignature, FingerprintsAreDistinctAndStable) {
  FailureSignature a, b;
  a.edges = {3};
  b.edges = {4};
  const std::string base = "0123456789abcdef0123456789abcdef";
  EXPECT_EQ(failover_fingerprint(base, a).size(), 32u);
  EXPECT_NE(failover_fingerprint(base, a), failover_fingerprint(base, b));
  EXPECT_NE(failover_fingerprint(base, a),
            failover_fingerprint(base, FailureSignature{}));
  EXPECT_EQ(failover_fingerprint(base, a), failover_fingerprint(base, a));
  EXPECT_NE(failover_fingerprint("another_base_fingerprint_value__", a),
            failover_fingerprint(base, a));
}

/// Failover fingerprints name every fallback in a library on disk, so a
/// change to their bytes silently orphans every library already written.
TEST(Failover, FingerprintsAreStable) {
  const DiGraph g = make_generalized_kautz(27, 4);
  const std::string base =
      schedule_fingerprint(g, forwarding_fabric(), ToolchainOptions{});
  ASSERT_EQ(base, "8dc1ff93efc278e6fc57f9d17dcbd9bb");
  EXPECT_EQ(failover_fingerprint(base, FailureSignature{}),
            "310e6d8428b00996b630c98416eff305");
  EXPECT_EQ(failover_fingerprint(base, FailureSignature::parse("e3", g)),
            "8fc6cc6ca91872d5e0dd9be32ccd2bac");
  EXPECT_EQ(failover_fingerprint(base, FailureSignature::parse("e3+e17+n2", g)),
            "b760366cb6e02ace016dd161580b2289");
}

// ------------------------------------------------------ degraded views ---

TEST(FailureDomain, DegradedTopologyRemapAndNodeKill) {
  const DiGraph g = make_generalized_kautz(12, 3);
  FailureSignature sig;
  sig.edges = {5};
  sig.nodes = {2};
  sig.normalize();

  const std::vector<EdgeId> dead = failed_edge_ids(g, sig);
  // Edge 5 plus every arc touching node 2.
  EXPECT_TRUE(std::binary_search(dead.begin(), dead.end(), 5));
  for (const EdgeId e : dead) {
    EXPECT_TRUE(e == 5 || g.edge(e).from == 2 || g.edge(e).to == 2);
  }

  std::vector<EdgeId> remap;
  const DiGraph degraded = degraded_topology(g, sig, &remap);
  EXPECT_EQ(degraded.num_nodes(), g.num_nodes());  // ids preserved.
  EXPECT_EQ(degraded.num_edges(), g.num_edges() - static_cast<int>(dead.size()));
  EXPECT_EQ(degraded.out_degree(2) + degraded.in_degree(2), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeId mapped = remap[static_cast<std::size_t>(e)];
    if (std::binary_search(dead.begin(), dead.end(), e)) {
      EXPECT_EQ(mapped, -1);
    } else {
      ASSERT_GE(mapped, 0);
      EXPECT_EQ(degraded.edge(mapped).from, g.edge(e).from);
      EXPECT_EQ(degraded.edge(mapped).to, g.edge(e).to);
    }
  }
}

TEST(FailureDomain, EnumerationCoversSinglesAndRankedPairs) {
  const DiGraph g = make_generalized_kautz(12, 3);
  FailureDomainOptions opts;
  opts.top_k_link_pairs = 4;
  opts.spectral_pool = 6;
  opts.spectral_iters = 48;
  const std::vector<FailureSignature> domain = enumerate_failure_domain(g, opts);

  std::size_t singles_e = 0, singles_n = 0, pairs = 0;
  std::set<std::string> seen;
  for (const FailureSignature& sig : domain) {
    EXPECT_TRUE(seen.insert(sig.to_string()).second) << sig.to_string();
    if (sig.nodes.empty() && sig.edges.size() == 1) ++singles_e;
    if (sig.edges.empty() && sig.nodes.size() == 1) ++singles_n;
    if (sig.nodes.empty() && sig.edges.size() == 2) ++pairs;
  }
  EXPECT_EQ(singles_e, static_cast<std::size_t>(g.num_edges()));
  EXPECT_EQ(singles_n, static_cast<std::size_t>(g.num_nodes()));
  EXPECT_EQ(pairs, 4u);
}

// ------------------------------------------- satellite 3: validation ----

// A schedule that was valid on the healthy fabric MUST be rejected against
// a degraded topology when any of its routes crosses a failed link.
TEST(DegradedValidation, HealthyScheduleRejectedOnDegradedTopology) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  const GeneratedSchedule& healthy = mgr.healthy_schedule();
  ASSERT_TRUE(healthy.path.has_value());
  ASSERT_TRUE(
      validate_path_schedule(g, *healthy.path, healthy.terminals).ok);

  // Find an edge the healthy schedule actually uses and fail it.
  std::vector<bool> used(static_cast<std::size_t>(g.num_edges()), false);
  for (const RouteEntry& r : healthy.path->entries) {
    for (const EdgeId e : r.path) used[static_cast<std::size_t>(e)] = true;
  }
  EdgeId victim = -1;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (used[static_cast<std::size_t>(e)]) {
      victim = e;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  FailureSignature sig;
  sig.edges = {victim};
  const DiGraph degraded = degraded_topology(g, sig);
  const ValidationResult check =
      validate_path_schedule(degraded, *healthy.path, healthy.terminals);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.errors.empty());
}

// --------------------------------------------------------- the ladder ---

TEST(FailoverLadder, HealthySignatureHitsTheSeededLibrary) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  const FailoverResult r = mgr.reschedule(FailureSignature{}, 1.0);
  EXPECT_EQ(r.rung, FailoverRung::kPrecomputedHit);
  EXPECT_TRUE(r.validated);
  EXPECT_TRUE(r.schedule.from_cache);
  EXPECT_GT(r.schedule.concurrent_flow, 0.0);
}

TEST(FailoverLadder, ColdLinkFailureResolvesExactThenHits) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  FailureSignature sig;
  sig.edges = {1};

  const FailoverResult first = mgr.reschedule(sig, 5.0);
  EXPECT_EQ(first.rung, FailoverRung::kDualWarmExact);
  EXPECT_TRUE(first.validated);
  // The served schedule must not touch the failed edge (it lives on the
  // degraded graph's id space and validated there).
  ASSERT_TRUE(first.schedule.path.has_value());
  const ValidationResult check = validate_path_schedule(
      degraded_topology(g, sig), *first.schedule.path,
      first.schedule.terminals);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());

  // The exact result was inserted into the library: same signature now
  // short-circuits to the precomputed rung.
  const FailoverResult second = mgr.reschedule(sig, 5.0);
  EXPECT_EQ(second.rung, FailoverRung::kPrecomputedHit);
  EXPECT_TRUE(second.validated);
}

TEST(FailoverLadder, NodeFailureResolvesOnSurvivors) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  FailureSignature sig;
  sig.nodes = {4};
  const FailoverResult r = mgr.reschedule(sig, 10.0);
  EXPECT_EQ(r.rung, FailoverRung::kDualWarmExact);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.schedule.terminals.size(), static_cast<std::size_t>(g.num_nodes() - 1));
  EXPECT_TRUE(std::find(r.schedule.terminals.begin(),
                        r.schedule.terminals.end(),
                        4) == r.schedule.terminals.end());
}

/// The degraded fabric's candidate set as rung 2 builds it: each surviving
/// commodity's healthy link-disjoint candidates that avoid every failed
/// edge, or, when none does, its shortest surviving path.
PathSet degraded_candidates(const DiGraph& healthy, const FailureSignature& sig,
                            const DiGraph& degraded,
                            const std::vector<EdgeId>& remap) {
  const PathSet healthy_paths = build_disjoint_path_set(healthy, all_nodes(healthy));
  const std::vector<double> unit(static_cast<std::size_t>(degraded.num_edges()), 1.0);
  PathSet out;
  for (std::size_t k = 0; k < healthy_paths.commodities.size(); ++k) {
    const auto [src, dst] = healthy_paths.commodities[k];
    if (std::count(sig.nodes.begin(), sig.nodes.end(), src) > 0 ||
        std::count(sig.nodes.begin(), sig.nodes.end(), dst) > 0) {
      continue;
    }
    std::vector<Path> candidates;
    for (const Path& path : healthy_paths.candidates[k]) {
      Path remapped;
      for (const EdgeId e : path) remapped.push_back(remap[static_cast<std::size_t>(e)]);
      if (std::count(remapped.begin(), remapped.end(), -1) == 0) {
        candidates.push_back(std::move(remapped));
      }
    }
    if (candidates.empty()) candidates.push_back(*dijkstra_path(degraded, src, dst, unit));
    out.commodities.emplace_back(src, dst);
    out.candidates.push_back(std::move(candidates));
  }
  return out;
}

// Rung 2 solves link and node failures alike from the degraded LP's own
// crash start; either way it lands on the slack start's optimum.
TEST(FailoverLadder, ExactRungMatchesTheSlackStartOnTheDegradedFabric) {
  const DiGraph g = make_generalized_kautz(12, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  FailureSignature two_links;
  two_links.edges = {3, 17};
  FailureSignature node;
  node.nodes = {4};
  for (FailureSignature sig : {two_links, node}) {
    sig.normalize();
    SCOPED_TRACE(sig.to_string());
    const FailoverResult r = mgr.reschedule(sig, 5.0);
    ASSERT_EQ(r.rung, FailoverRung::kDualWarmExact);
    ASSERT_TRUE(r.validated);
    std::vector<EdgeId> remap;
    const DiGraph degraded = degraded_topology(g, sig, &remap);
    const LpSolution slack =
        solve_lp(build_path_mcf_model(degraded, degraded_candidates(g, sig, degraded, remap)));
    ASSERT_TRUE(slack.optimal());
    EXPECT_NEAR(r.schedule.concurrent_flow, slack.objective, 1e-9 * slack.objective);
  }
}

// The healthy baseline takes the pipeline's own solver rule on both sides
// of exact_master_limit: the exact pMCF at or below it, the FPTAS above.
TEST(FailoverBaseline, MatchesThePipelineOnBothSidesOfTheExactLimit) {
  const int limit = ToolchainOptions{}.mcf.exact_master_limit;
  ASSERT_LT(12, limit);
  ASSERT_GT(60, limit);
  for (const int n : {12, 60}) {
    SCOPED_TRACE("GenKautz(" + std::to_string(n) + ",4)");
    const DiGraph g = make_generalized_kautz(n, 4);
    const GeneratedSchedule pipeline =
        synthesize_schedule(g, forwarding_fabric(), ToolchainOptions{});
    ASSERT_EQ(pipeline.kind, ScheduleKind::kPathPMcf);
    const FailoverManager mgr(g, forwarding_fabric(), {});
    const double f = mgr.healthy_schedule().concurrent_flow;
    EXPECT_EQ(std::memcmp(&f, &pipeline.concurrent_flow, sizeof f), 0)
        << f << " vs " << pipeline.concurrent_flow;
  }
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Online, rung 2 takes the baseline's rule too: past exact_master_limit
// survivors its LP cannot finish inside a deadline, so the FPTAS rung gets
// the whole budget, with no crash run and no LP solved first.
TEST(FailoverLadder, PastTheExactLimitTheFptasRungServesWithoutAnLp) {
  const DiGraph g = make_generalized_kautz(60, 4);
  ASSERT_GT(g.num_nodes(), ToolchainOptions{}.mcf.exact_master_limit);
  FailoverManager mgr(g, forwarding_fabric(), {});
  FailureSignature sig;
  sig.edges = {3, 17};
  const std::uint64_t crash_before = counter_value("mcf.crash_phases");
  const std::uint64_t solves_before = counter_value("lp.solves");
  const FailoverResult r = mgr.reschedule(sig, 0.25);
  EXPECT_EQ(r.rung, FailoverRung::kFptasAnytime);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(counter_value("mcf.crash_phases"), crash_before);
  EXPECT_EQ(counter_value("lp.solves"), solves_before);
}

TEST(FailoverLadder, VanishingDeadlineFallsToDegradedRerouteStillValid) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  FailureSignature sig;
  sig.edges = {2};
  // A deadline far below any LP/FPTAS budget: the ladder must fall through
  // to the greedy reroute, which STILL has to validate on the degraded
  // fabric.
  const FailoverResult r = mgr.reschedule(sig, 1e-6);
  EXPECT_EQ(r.rung, FailoverRung::kDegradedReroute);
  EXPECT_TRUE(r.validated);
  ASSERT_TRUE(r.schedule.path.has_value());
  EXPECT_TRUE(validate_path_schedule(degraded_topology(g, sig),
                                     *r.schedule.path, r.schedule.terminals)
                  .ok);
}

TEST(FailoverLadder, DisconnectingFailureReportsUnschedulable) {
  // Ring: killing both arcs of one bidirectional link disconnects the
  // cycle's directed rotations? No — a ring survives one bidi cut as a
  // path; kill two separated bidi links instead, leaving two islands.
  const DiGraph g = make_ring(6);
  FailureSignature sig;
  // make_ring adds bidi pairs in order: edges 2i/2i+1 belong to link i
  // (0-1, 1-2, ...). Cut links 0-1 and 3-4: nodes {1,2,3} split from
  // {4,5,0}.
  sig.edges = {0, 1, 6, 7};
  FailoverManager mgr(g, forwarding_fabric(), {});
  const FailoverResult r = mgr.reschedule(sig, 1.0);
  EXPECT_FALSE(r.validated);
  EXPECT_FALSE(r.notes.empty());
}

// ------------------------------------------------------- precompute -----

TEST(FailoverPrecompute, DomainBatchStoresValidatedFallbacks) {
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverOptions opts;
  opts.domain.single_nodes = false;
  opts.domain.top_k_link_pairs = 2;
  opts.domain.spectral_pool = 4;
  opts.domain.spectral_iters = 32;
  opts.precompute_deadline_s = 10.0;
  FailoverManager mgr(g, forwarding_fabric(), opts);

  const std::vector<FailureSignature> domain = mgr.enumerate_domain();
  ASSERT_FALSE(domain.empty());
  const PrecomputeReport report = mgr.precompute(domain);
  EXPECT_EQ(report.attempted, domain.size());
  EXPECT_EQ(report.stored + report.skipped_disconnected + report.failed,
            report.attempted);
  EXPECT_GT(report.stored, 0u);

  // Every stored signature now serves from the precomputed rung, validated.
  std::size_t hits = 0;
  for (const FailureSignature& sig : domain) {
    const FailoverResult r = mgr.reschedule(sig, 1.0);
    if (r.rung == FailoverRung::kPrecomputedHit) {
      EXPECT_TRUE(r.validated);
      ++hits;
    }
  }
  EXPECT_EQ(hits, report.stored);
}

TEST(FailoverPrecompute, VanishingBudgetCountsEverySignatureFailed) {
  // No exact solve meets the budget: each throws, and precompute counts its
  // signature failed, stores nothing and throws nothing itself.
  const DiGraph g = make_generalized_kautz(10, 3);
  FailoverOptions opts;
  opts.domain.single_nodes = false;
  opts.domain.top_k_link_pairs = 2;
  opts.domain.spectral_pool = 4;
  opts.domain.spectral_iters = 32;
  opts.precompute_deadline_s = 1e-9;
  FailoverManager mgr(g, forwarding_fabric(), opts);

  const std::vector<FailureSignature> domain = mgr.enumerate_domain();
  ASSERT_FALSE(domain.empty());
  const std::uint64_t inserted = mgr.library().stats().insertions;
  PrecomputeReport report;
  ASSERT_NO_THROW(report = mgr.precompute(domain));
  EXPECT_EQ(report.attempted, domain.size());
  EXPECT_EQ(report.stored, 0u);
  EXPECT_GT(report.failed, 0u);
  EXPECT_EQ(report.failed + report.skipped_disconnected, report.attempted);
  EXPECT_EQ(mgr.library().stats().insertions, inserted);
}

TEST(FailoverPrecompute, DiskLibrarySurvivesManagerRestart) {
  const DiGraph g = make_generalized_kautz(10, 3);
  const fs::path dir =
      fs::temp_directory_path() /
      ("a2a_failover_lib_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  FailureSignature sig;
  sig.edges = {3};
  {
    FailoverOptions opts;
    opts.library_dir = dir.string();
    FailoverManager mgr(g, forwarding_fabric(), opts);
    const FailoverResult r = mgr.reschedule(sig, 5.0);
    EXPECT_EQ(r.rung, FailoverRung::kDualWarmExact);
  }
  {
    // A fresh manager (fresh memory tier) over the same directory serves
    // the persisted fallback without re-solving.
    FailoverOptions opts;
    opts.library_dir = dir.string();
    FailoverManager mgr(g, forwarding_fabric(), opts);
    const FailoverResult r = mgr.reschedule(sig, 5.0);
    EXPECT_EQ(r.rung, FailoverRung::kPrecomputedHit);
    EXPECT_TRUE(r.validated);
  }
  fs::remove_all(dir);
}

TEST(FailoverPrecompute, UnwritableLibraryDirStillConstructsAndServes) {
  const DiGraph g = make_generalized_kautz(10, 3);
  const fs::path dir =
      fs::temp_directory_path() /
      ("a2a_failover_blocked_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A library_dir below a regular file: every disk write fails (root
  // ignores permission bits, so chmod would not). The library keeps
  // serving from memory instead of throwing out of the ladder.
  std::ofstream(dir / "blocker") << "not a directory";
  FailoverOptions opts;
  opts.library_dir = (dir / "blocker" / "lib").string();
  std::optional<FailoverManager> mgr;
  ASSERT_NO_THROW(mgr.emplace(g, forwarding_fabric(), opts));
  FailureSignature sig;
  sig.edges = {3};
  FailoverResult first;
  ASSERT_NO_THROW(first = mgr->reschedule(sig, 5.0));
  EXPECT_EQ(first.rung, FailoverRung::kDualWarmExact);
  EXPECT_TRUE(first.validated);
  const FailoverResult second = mgr->reschedule(sig, 5.0);
  EXPECT_EQ(second.rung, FailoverRung::kPrecomputedHit);
  EXPECT_TRUE(second.validated);
  EXPECT_GE(mgr->library().stats().disk_errors, 2u);
  mgr.reset();
  fs::remove_all(dir);
}

// ------------------------------------------------- fault injection ------

// Miniature of bench_failover: a stream of random link/node failures and
// restorations over a GenKautz fabric. Every served schedule must validate
// against the current degraded topology, and the deadline may be overshot
// by at most the validation pass (plus scheduling noise).
TEST(FaultInjection, EventStreamServesValidSchedulesWithinDeadline) {
  const DiGraph g = make_generalized_kautz(12, 3);
  FailoverManager mgr(g, forwarding_fabric(), {});
  Rng rng(2024);
  const double deadline = 0.5;

  std::set<EdgeId> down_edges;
  std::set<NodeId> down_nodes;
  int served = 0;
  for (int event = 0; event < 24; ++event) {
    // Mutate the fabric state: mostly failures, some restorations.
    const int kind = rng.next_int(0, 10);
    if (kind < 5) {
      down_edges.insert(rng.next_int(0, g.num_edges()));
    } else if (kind < 7 && down_nodes.empty()) {
      down_nodes.insert(rng.next_int(0, g.num_nodes()));
    } else if (!down_edges.empty()) {
      down_edges.erase(down_edges.begin());
    } else {
      down_nodes.clear();
    }

    FailureSignature sig;
    sig.edges.assign(down_edges.begin(), down_edges.end());
    sig.nodes.assign(down_nodes.begin(), down_nodes.end());
    sig.normalize();

    // Connectivity guard: skip states with no feasible all-to-all.
    std::vector<NodeId> terminals;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (down_nodes.count(n) == 0) terminals.push_back(n);
    }
    if (terminals.size() < 2 ||
        !terminals_mutually_reachable(degraded_topology(g, sig), terminals)) {
      continue;
    }

    const FailoverResult r = mgr.reschedule(sig, deadline);
    ++served;
    EXPECT_TRUE(r.validated) << "event " << event << " sig "
                             << sig.to_string() << ": " << r.notes;
    ASSERT_TRUE(r.schedule.path.has_value());
    EXPECT_TRUE(validate_path_schedule(degraded_topology(g, sig),
                                       *r.schedule.path, r.schedule.terminals)
                    .ok);
    EXPECT_GT(r.schedule.concurrent_flow, 0.0);
    // Deadline contract: overshoot bounded by the validation cost (plus a
    // generous scheduling-noise allowance for CI machines).
    EXPECT_LE(r.elapsed_s, deadline + r.validate_s + 0.25)
        << "event " << event << " rung " << to_string(r.rung);
  }
  EXPECT_GT(served, 10);
}

}  // namespace
}  // namespace a2a
