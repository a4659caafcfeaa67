// ScheduleCache: fingerprints, byte-budget LRU tier, content-addressed disk
// tier, pipeline bypass.
#include "core/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fnv1a.hpp"
#include "common/random.hpp"
#include "failover/failure_domain.hpp"
#include "graph/topologies.hpp"
#include "obs/metrics.hpp"
#include "reference/fingerprint_reference.hpp"
#include "runtime/fabric.hpp"

namespace a2a {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("a2a_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

/// Synthetic schedule whose memory footprint scales with `transfers` and
/// whose serialized content is distinguished by `tag` — precise byte-budget
/// and dedup experiments without running the LP/MCF pipeline.
GeneratedSchedule make_sized(int transfers, int tag) {
  GeneratedSchedule s;
  s.kind = ScheduleKind::kLinkUnrolled;
  LinkSchedule link;
  link.num_nodes = 4;
  link.num_steps = 1 + tag;
  link.transfers.assign(
      static_cast<std::size_t>(transfers),
      Transfer{{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  s.link = std::move(link);
  s.concurrent_flow = tag;
  s.schedule_graph = make_ring(4);
  s.terminals = {0, 1, 2, 3};
  s.notes = "synthetic";
  return s;
}

/// What the memory tier charges for an entry insert() stores: its envelope.
std::size_t charge(const GeneratedSchedule& s) {
  return generated_schedule_to_bytes(s).size();
}

/// A disk_dir nested below a regular file: every directory creation and
/// write under it fails (root ignores permission bits, so chmod would not).
std::string unwritable_dir(const fs::path& root) {
  std::ofstream(root / "blocker") << "not a directory";
  return (root / "blocker" / "cache").string();
}

std::uint64_t decode_calls() {
  return obs::MetricsRegistry::global().counter("schedbin.decode.calls").value();
}

TEST(Fingerprint, StableAndSensitive) {
  const DiGraph ring = make_ring(8);
  const Fabric cerio = hpc_cerio_fabric();
  const ToolchainOptions options;
  const std::string fp = schedule_fingerprint(ring, cerio, options);
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(fp, schedule_fingerprint(make_ring(8), cerio, options));

  // Any input change moves the fingerprint.
  EXPECT_NE(fp, schedule_fingerprint(make_ring(9), cerio, options));
  EXPECT_NE(fp, schedule_fingerprint(ring, gpu_mscl_fabric(), options));
  ToolchainOptions coarser = options;
  coarser.chunking.max_denominator = 12;
  EXPECT_NE(fp, schedule_fingerprint(ring, cerio, coarser));
  DiGraph recap = make_ring(8);
  recap.set_capacity(0, 2.0);
  EXPECT_NE(fp, schedule_fingerprint(recap, cerio, options));
}

TEST(Fingerprint, EdgeOrderDoesNotMatter) {
  DiGraph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  const Fabric f = cpu_oneccl_fabric();
  EXPECT_EQ(schedule_fingerprint(a, f, {}), schedule_fingerprint(b, f, {}));
}

/// Golden values: fingerprints name every cache directory entry and
/// failover library on disk, so a change to the bytes they are fed (an
/// option field removed, a constant retuned, a feed reordered) would
/// silently orphan all of them. Change these only together with a
/// deliberate format break.
TEST(ScheduleCache, FingerprintsAreStable) {
  const DiGraph gk27 = make_generalized_kautz(27, 4);
  EXPECT_EQ(schedule_fingerprint(gk27, hpc_cerio_fabric(), ToolchainOptions{}),
            "8dc1ff93efc278e6fc57f9d17dcbd9bb");
  ToolchainOptions zipf;
  zipf.workload.demand = DemandSpec::parse("zipf:0.6");
  EXPECT_EQ(schedule_fingerprint(make_torus({3, 3, 2}), cpu_oneccl_fabric(), zipf),
            "c344c82e7b0f1378aad493a8e5db774d");
  ToolchainOptions budgeted;
  budgeted.mcf.lp.max_iterations = 1000;
  budgeted.mcf.lp.time_limit_s = 2;
  EXPECT_EQ(schedule_fingerprint(gk27, hpc_cerio_fabric(), budgeted),
            "a0c16d64b7605eb90091461253996fb4");
}

/// The other two keys that name objects on disk: the content key an
/// artifact's object file is named by, and a failover fingerprint.
TEST(ScheduleCache, ContentKeyAndFailoverFingerprintAreStable) {
  TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(options));
  const GeneratedSchedule schedule = make_sized(32, 5);
  cache.insert("pinned_fingerprint", schedule);
  const fs::path object = cache.entry_path("pinned_fingerprint");
  EXPECT_EQ(object.filename().string(),
            "79e500378a2c1048c23fb136cb9618da.schedbin");
  const std::string envelope = generated_schedule_to_bytes(schedule);
  EXPECT_EQ(object.stem().string(),
            hex128(fnv1a(envelope, 0x5bd1e995ULL),
                   fnv1a(envelope, 0xc2b2ae3d27d4eb4fULL)));

  const DiGraph torus = make_torus({3, 3, 2});
  EXPECT_EQ(failover_fingerprint("c344c82e7b0f1378aad493a8e5db774d",
                                 FailureSignature::parse("e5+n1", torus)),
            "cb747c442b5f6e1867800af8aa78f593");
}

/// A random graph with what the canonical form must absorb: edges in any
/// order, parallel edges of different capacities, isolated nodes and
/// non-unit capacities.
DiGraph random_fingerprint_graph(Rng& rng, bool shuffled) {
  const int n = rng.next_int(0, 24);
  struct Arc {
    NodeId from, to;
    double capacity;
  };
  std::vector<Arc> arcs;
  const double caps[] = {1.0, 2.0, 0.5, 1e-3, 12.25, 0.0};
  if (n >= 2) {
    const int m = rng.next_int(0, 3 * n);
    for (int i = 0; i < m; ++i) {
      // The upper half of the nodes stays isolated half the time.
      const int span = rng.next_below(2) == 0 ? n : std::max(2, n / 2);
      const NodeId from = rng.next_int(0, span);
      NodeId to = rng.next_int(0, span - 1);
      if (to >= from) ++to;
      const double cap = rng.next_below(4) == 0
                             ? 0.1 + rng.next_double() * 10.0
                             : caps[rng.next_below(std::size(caps))];
      arcs.push_back({from, to, cap});
      if (rng.next_below(5) == 0) {  // a parallel twin with another capacity
        arcs.push_back({from, to, cap * 2.0 + 1.0});
      }
    }
  }
  if (shuffled) rng.shuffle(arcs);
  DiGraph g(n);
  for (const Arc& a : arcs) g.add_edge(a.from, a.to, a.capacity);
  return g;
}

ToolchainOptions random_fingerprint_options(Rng& rng) {
  ToolchainOptions o;
  const auto coin = [&] { return rng.next_below(3) == 0; };
  if (coin()) o.workload.demand = DemandSpec::parse("zipf:0.6");
  if (coin()) o.workload.demand = DemandSpec::parse("perm:3");
  if (coin()) o.workload.collective = CollectiveKind::kReduceScatter;
  if (coin()) o.path_diversity_threshold = 100000 + rng.next_int(0, 1000);
  if (coin()) o.exact_tsmcf_limit = rng.next_int(0, 30);
  if (coin()) o.vc_max_layers_warn = rng.next_int(1, 9);
  if (coin()) o.mcf.exact_master_limit = rng.next_int(0, 80);
  if (coin()) o.mcf.fptas_epsilon = 0.01 + rng.next_double() * 0.1;
  if (coin()) o.mcf.lp.max_iterations = rng.next_int(1, 100000);
  if (coin()) o.mcf.lp.time_limit_s = rng.next_double();  // not fed
  if (coin()) o.mcf.fptas.epsilon = 0.01 + rng.next_double() * 0.1;
  if (coin()) o.mcf.fptas.max_phases = rng.next_int(1, 1000000);
  if (coin()) o.chunking.max_denominator = rng.next_int(1, 720);
  if (coin()) o.chunking.min_fraction = rng.next_double() * 1e-2;
  return o;
}

TEST(Fingerprint, StreamedMatchesTheBufferedReference) {
  const Fabric fabrics[] = {hpc_cerio_fabric(), gpu_mscl_fabric(),
                            cpu_oneccl_fabric()};
  Rng rng(0xf1f1);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t graph_seed = rng.next_u64();
    Rng draw(graph_seed), redraw(graph_seed);
    const DiGraph g = random_fingerprint_graph(draw, false);
    const DiGraph shuffled = random_fingerprint_graph(redraw, true);
    const Fabric& fabric = fabrics[trial % 3];
    const ToolchainOptions options = trial < 3 ? ToolchainOptions{}
                                               : random_fingerprint_options(rng);
    const std::string expected =
        schedule_fingerprint_reference(g, fabric, options);
    EXPECT_EQ(schedule_fingerprint(g, fabric, options), expected)
        << "trial " << trial;
    EXPECT_EQ(schedule_fingerprint(shuffled, fabric, options), expected)
        << "trial " << trial;
  }
  // The shapes the service and the benchmark serve.
  ToolchainOptions zipf;
  zipf.workload.demand = DemandSpec::parse("zipf:0.6");
  for (const DiGraph& g :
       {make_generalized_kautz(27, 4), make_generalized_kautz(64, 4),
        make_generalized_kautz(96, 4), make_torus({3, 3, 2})}) {
    for (const Fabric& fabric : fabrics) {
      for (const ToolchainOptions& options : {ToolchainOptions{}, zipf}) {
        EXPECT_EQ(schedule_fingerprint(g, fabric, options),
                  schedule_fingerprint_reference(g, fabric, options));
      }
    }
  }
}

TEST(ScheduleCache, SecondCallSkipsPipeline) {
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCache cache;

  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule first = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1);
  EXPECT_FALSE(first.from_cache);

  const GeneratedSchedule second = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1)
      << "second identical request must not re-run the LP/MCF pipeline";
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The cached result is the same schedule.
  EXPECT_EQ(second.kind, first.kind);
  EXPECT_EQ(second.concurrent_flow, first.concurrent_flow);
  ASSERT_TRUE(first.link.has_value());
  ASSERT_TRUE(second.link.has_value());
  EXPECT_EQ(second.link->transfers.size(), first.link->transfers.size());
  EXPECT_EQ(second.terminals, first.terminals);
  EXPECT_EQ(second.notes, first.notes);
}

TEST(ScheduleCache, DifferentRequestsMiss) {
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCache cache;
  (void)generate_schedule(make_ring(6), fabric, {}, &cache);
  (void)generate_schedule(make_ring(7), fabric, {}, &cache);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- memory tier: byte-budget eviction ------------------------------------

TEST(ScheduleCache, ByteBudgetEvictsLruOldest) {
  const GeneratedSchedule a = make_sized(100, 1);
  const GeneratedSchedule b = make_sized(100, 2);
  const GeneratedSchedule c = make_sized(100, 3);
  const std::size_t each = charge(a);
  ASSERT_EQ(each, charge(b));

  ScheduleCacheOptions options;
  options.max_memory_bytes = 2 * each;  // room for exactly two
  ScheduleCache cache(options);
  cache.insert("a", a);
  cache.insert("b", b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.memory_bytes(), 2 * each);
  // Touch a so b becomes the LRU victim.
  EXPECT_TRUE(cache.lookup("a").has_value());
  cache.insert("c", c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().memory_evictions, 1u);
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value()) << "b was the LRU victim";
}

TEST(ScheduleCache, MixedSizeEvictionFreesEnoughBytes) {
  // One large insert must evict as many small LRU entries as it takes.
  const GeneratedSchedule small = make_sized(50, 1);
  const GeneratedSchedule large = make_sized(400, 2);
  const std::size_t small_bytes = charge(small);
  const std::size_t large_bytes = charge(large);
  ASSERT_GT(large_bytes, 3 * small_bytes);

  ScheduleCacheOptions options;
  options.max_memory_bytes = large_bytes + small_bytes;
  ScheduleCache cache(options);
  cache.insert("s1", small);
  cache.insert("s2", small);
  cache.insert("s3", small);
  cache.insert("s4", small);
  EXPECT_EQ(cache.size(), 4u);
  cache.insert("big", large);
  EXPECT_LE(cache.memory_bytes(), options.max_memory_bytes);
  EXPECT_TRUE(cache.lookup("big").has_value());
  EXPECT_TRUE(cache.lookup("s4").has_value()) << "newest small survives";
  EXPECT_FALSE(cache.lookup("s1").has_value());
  EXPECT_FALSE(cache.lookup("s2").has_value());
  EXPECT_FALSE(cache.lookup("s3").has_value());
}

TEST(ScheduleCache, BudgetExactlyMetKeepsEntries) {
  const GeneratedSchedule a = make_sized(64, 1);
  const GeneratedSchedule b = make_sized(64, 2);
  ScheduleCacheOptions options;
  options.max_memory_bytes = charge(a) + charge(b);
  ScheduleCache cache(options);
  cache.insert("a", a);
  cache.insert("b", b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.memory_bytes(), options.max_memory_bytes);
  EXPECT_EQ(cache.stats().memory_evictions, 0u);
  // One more byte of demand evicts the LRU entry.
  cache.insert("c", make_sized(1, 3));
  EXPECT_EQ(cache.stats().memory_evictions, 1u);
  EXPECT_FALSE(cache.lookup("a").has_value());
}

TEST(ScheduleCache, SingleEntryLargerThanBudgetNeverAdmitted) {
  const GeneratedSchedule big = make_sized(1000, 1);
  ScheduleCacheOptions options;
  options.max_memory_bytes = charge(big) - 1;
  ScheduleCache cache(options);
  cache.insert("big", big);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_FALSE(cache.lookup("big").has_value());
  // A smaller version under the same key is admitted; a later oversize
  // update must drop it rather than serve stale data.
  const GeneratedSchedule small = make_sized(10, 1);
  cache.insert("big", small);
  EXPECT_EQ(cache.size(), 1u);
  cache.insert("big", big);
  EXPECT_EQ(cache.size(), 0u) << "oversize update must evict the stale entry";
}

TEST(ScheduleCache, ZeroBudgetDisablesMemoryTier) {
  ScheduleCacheOptions options;
  options.max_memory_bytes = 0;
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(10, 1);
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 0u);
}

TEST(ScheduleCache, ZeroBudgetStillServesDiskTier) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.max_memory_bytes = 0;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(10, 1);
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.size(), 0u);  // nothing retained in memory
  const auto hit = cache.lookup("fp");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->concurrent_flow, schedule.concurrent_flow);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.size(), 0u);  // the disk hit was not promoted either
  // Repeated lookups keep hitting disk, never the (disabled) memory tier;
  // the byte path serves every one as a fresh mmap of the disk object.
  ASSERT_TRUE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_hits, 2u);
  for (std::uint64_t i = 3; i <= 4; ++i) {
    const auto view = cache.lookup_artifact("fp");
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->mapping);
    EXPECT_TRUE(view->from_disk);
    EXPECT_EQ(cache.stats().disk_hits, i);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.memory_bytes(), 0u);
  }
  EXPECT_EQ(cache.stats().memory_hits, 0u);
}

// ---- disk tier: content addressing + byte budget --------------------------

TEST(ScheduleCache, DiskTierSurvivesProcessRestart) {
  const TempDir dir;
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();

  GeneratedSchedule first;
  {
    ScheduleCache cache(options);
    first = generate_schedule(g, fabric, {}, &cache);
    EXPECT_EQ(cache.stats().disk_writes, 1u);
    const std::string entry =
        cache.entry_path(schedule_fingerprint(g, fabric, {}));
    ASSERT_FALSE(entry.empty());
    EXPECT_TRUE(fs::exists(entry));
  }

  // A fresh cache (fresh process, conceptually) hits the disk tier and does
  // not re-run the pipeline.
  ScheduleCache cache(options);
  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule second = generate_schedule(g, fabric, {}, &cache);
  EXPECT_EQ(pipeline_invocations(), runs_before);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  ASSERT_TRUE(second.link.has_value());
  ASSERT_TRUE(first.link.has_value());
  ASSERT_EQ(second.link->transfers.size(), first.link->transfers.size());
  for (std::size_t i = 0; i < first.link->transfers.size(); ++i) {
    EXPECT_EQ(second.link->transfers[i].chunk, first.link->transfers[i].chunk);
    EXPECT_EQ(second.link->transfers[i].step, first.link->transfers[i].step);
  }
  EXPECT_EQ(second.schedule_graph.num_edges(), first.schedule_graph.num_edges());
  EXPECT_EQ(second.notes, first.notes);
}

TEST(ScheduleCache, ContentAddressedDedupSharesOneArtifact) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(200, 7);
  // Two different requests (fingerprints) compiling to the identical
  // schedule — e.g. the same topology requested under two option sets that
  // do not change the result, or repeat pipeline invocations.
  cache.insert("fingerprint_one", schedule);
  cache.insert("fingerprint_two", schedule);
  EXPECT_EQ(cache.disk_object_count(), 1u)
      << "identical schedules must share one on-disk artifact";
  EXPECT_EQ(cache.stats().disk_writes, 1u);
  EXPECT_EQ(cache.stats().disk_dedups, 1u);
  EXPECT_EQ(cache.entry_path("fingerprint_one"),
            cache.entry_path("fingerprint_two"));

  // Both fingerprints resolve from a fresh cache (disk only).
  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_TRUE(fresh.lookup("fingerprint_one").has_value());
  EXPECT_TRUE(fresh.lookup("fingerprint_two").has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 2u);

  // Distinct content gets its own artifact.
  cache.insert("fingerprint_three", make_sized(200, 8));
  EXPECT_EQ(cache.disk_object_count(), 2u);
}

TEST(ScheduleCache, DiskByteBudgetGcEvictsOldestArtifactsAndRefs) {
  const TempDir dir;
  ScheduleCacheOptions probe_options;
  probe_options.disk_dir = dir.path.string();
  std::size_t artifact_bytes = 0;
  {
    ScheduleCache probe(probe_options);
    probe.insert("probe", make_sized(300, 0));
    artifact_bytes = probe.disk_bytes();
    ASSERT_GT(artifact_bytes, 0u);
    fs::remove(probe.entry_path("probe"));
  }

  ScheduleCacheOptions options = probe_options;
  options.max_disk_bytes = 2 * artifact_bytes + artifact_bytes / 2;
  ScheduleCache cache(options);
  cache.insert("first", make_sized(300, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.insert("second", make_sized(300, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(cache.disk_object_count(), 2u);
  cache.insert("third", make_sized(300, 3));

  // The budget holds two artifacts: the oldest ("first") was GC'ed along
  // with its ref, so the lookup is a clean miss, not a dangling pointer.
  EXPECT_EQ(cache.disk_object_count(), 2u);
  EXPECT_LE(cache.disk_bytes(), options.max_disk_bytes);
  EXPECT_GE(cache.stats().disk_evictions, 1u);
  EXPECT_TRUE(cache.entry_path("first").empty());
  EXPECT_FALSE(cache.entry_path("second").empty());
  EXPECT_FALSE(cache.entry_path("third").empty());

  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_FALSE(fresh.lookup("first").has_value());
  EXPECT_TRUE(fresh.lookup("second").has_value());
  EXPECT_TRUE(fresh.lookup("third").has_value());
}

TEST(ScheduleCache, ReinsertHealsCorruptArtifactInsteadOfDedupingAgainstIt) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force every lookup to the disk tier
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(100, 3);
  cache.insert("fp", schedule);
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xEE');
  }
  EXPECT_FALSE(cache.lookup("fp").has_value()) << "corrupt entry is a miss";
  // The recompile-and-reinsert path must rewrite the bad bytes, not dedup
  // against them and leave the object poisoned forever.
  cache.insert("fp", schedule);
  EXPECT_EQ(cache.stats().disk_writes, 2u);
  EXPECT_EQ(cache.stats().disk_dedups, 0u);
  ScheduleCacheOptions cold = options;
  cold.max_memory_bytes = 0;
  ScheduleCache fresh(cold);
  EXPECT_TRUE(fresh.lookup("fp").has_value()) << "artifact healed";
}

TEST(ScheduleCache, OversizeArtifactIsNeverWrittenToDisk) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  const GeneratedSchedule big = make_sized(500, 1);
  const std::size_t artifact =
      generated_schedule_to_bytes(big, options.schedbin).size();
  options.max_disk_bytes = artifact - 1;
  ScheduleCache cache(options);
  cache.insert("big", big);
  // Writing it would only be GC'ed straight back (insert-then-evict churn),
  // so the write is skipped and surfaced in the stats.
  EXPECT_EQ(cache.disk_object_count(), 0u);
  EXPECT_EQ(cache.stats().disk_writes, 0u);
  EXPECT_EQ(cache.stats().disk_oversize_rejections, 1u);
  // A fitting artifact still lands.
  cache.insert("small", make_sized(5, 2));
  EXPECT_EQ(cache.disk_object_count(), 1u);
  EXPECT_EQ(cache.stats().disk_writes, 1u);
}

TEST(ScheduleCache, CorruptDiskEntryIsAMissNotAnError) {
  const TempDir dir;
  const DiGraph g = make_ring(6);
  const Fabric fabric = cpu_oneccl_fabric();
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  const std::string fp = schedule_fingerprint(g, fabric, {});
  {
    ScheduleCache cache(options);
    (void)generate_schedule(g, fabric, {}, &cache);
    // Corrupt the artifact on disk.
    const std::string path = cache.entry_path(fp);
    ASSERT_FALSE(path.empty());
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xFF');
  }
  ScheduleCache cache(options);
  const GeneratedSchedule regenerated = generate_schedule(g, fabric, {}, &cache);
  EXPECT_FALSE(regenerated.from_cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
}

TEST(ScheduleCache, CorruptArtifactIsQuarantinedAndRefDropped) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force lookups to the disk tier
  ScheduleCache cache(options);
  cache.insert("fp", make_sized(50, 7));
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('\xAB');
  }
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  // The bad bytes are preserved for forensics under quarantine/, no longer
  // where lookups resolve, and the fingerprint's ref is gone.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(
      fs::exists(dir.path / "quarantine" / fs::path(path).filename()));
  EXPECT_TRUE(cache.entry_path("fp").empty());
  // Quarantined garbage never counts as a servable artifact.
  EXPECT_EQ(cache.disk_object_count(), 0u);
  // Second lookup is a plain miss — quarantine happens once per artifact.
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
}

TEST(ScheduleCache, TruncatedArtifactQuarantinesInsteadOfThrowing) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;
  ScheduleCache cache(options);
  cache.insert("fp", make_sized(200, 9));
  const std::string path = cache.entry_path("fp");
  ASSERT_FALSE(path.empty());
  // Simulate a crashed writer that bypassed the tmp+rename discipline (or
  // bit-rot that shortened the file): keep only the first 40 bytes, which
  // still parse as a plausible envelope prefix.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 40u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 40);
  }
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  // Re-synthesis (re-insert) heals the entry with a fresh write.
  cache.insert("fp", make_sized(200, 9));
  EXPECT_TRUE(cache.lookup("fp").has_value());
}

TEST(ScheduleCache, EnvelopeRoundTripsPathSchedules) {
  // A path-kind GeneratedSchedule (NIC-forwarding fabric) through the disk
  // envelope: graph, terminals, notes, vc layers and bit-exact weights.
  const DiGraph g = make_hypercube(3);
  const GeneratedSchedule original = generate_schedule(g, hpc_cerio_fabric(), {});
  ASSERT_TRUE(original.path.has_value());
  const std::string bytes = generated_schedule_to_bytes(original);
  const GeneratedSchedule decoded = generated_schedule_from_bytes(bytes);
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.concurrent_flow, original.concurrent_flow);
  EXPECT_EQ(decoded.vc_layers, original.vc_layers);
  EXPECT_EQ(decoded.terminals, original.terminals);
  EXPECT_EQ(decoded.notes, original.notes);
  ASSERT_TRUE(decoded.path.has_value());
  ASSERT_EQ(decoded.path->entries.size(), original.path->entries.size());
  for (std::size_t i = 0; i < decoded.path->entries.size(); ++i) {
    EXPECT_EQ(decoded.path->entries[i].weight, original.path->entries[i].weight);
    EXPECT_EQ(decoded.path->entries[i].path, original.path->entries[i].path);
  }
}

TEST(ScheduleCache, NullCacheBehavesLikePlainCall) {
  const DiGraph g = make_ring(5);
  const std::uint64_t runs_before = pipeline_invocations();
  const GeneratedSchedule r =
      generate_schedule(g, cpu_oneccl_fabric(), {}, nullptr);
  EXPECT_EQ(pipeline_invocations(), runs_before + 1);
  EXPECT_FALSE(r.from_cache);
}

TEST(ScheduleCache, InsertReturnsTheExactEnvelopeWritten) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(options));
  const GeneratedSchedule schedule = make_sized(50, 3);
  const auto bytes = cache.insert("fp", schedule);
  ASSERT_TRUE(bytes);
  // The returned buffer IS the serialized envelope the disk artifact holds.
  EXPECT_EQ(*bytes, generated_schedule_to_bytes(schedule, {}));
  std::ifstream in(cache.entry_path("fp"), std::ios::binary);
  std::ostringstream on_disk;
  on_disk << in.rdbuf();
  EXPECT_EQ(on_disk.str(), *bytes);
  // And parse_schedule_envelope locates the inner frame without a decode.
  const ArtifactView view = parse_schedule_envelope(*bytes);
  EXPECT_TRUE(view.valid());
  EXPECT_GT(view.blob_size, 0u);
  EXPECT_EQ(view.kind, schedule.kind);
  EXPECT_DOUBLE_EQ(view.concurrent_flow, schedule.concurrent_flow);
  const SchedBinReader reader = SchedBinReader::from_bytes(view.schedbin());
  EXPECT_EQ(reader.info().record_count,
            static_cast<std::uint64_t>(schedule.link->transfers.size()));
}

TEST(ScheduleCache, LookupArtifactServesMmapWithoutDecode) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(options));
  const GeneratedSchedule schedule = make_sized(80, 4);
  const auto bytes = cache.insert("fp", schedule);
  const std::uint64_t decodes_before = decode_calls();

  // Right after insert() the memory tier serves the heap envelope it wrote.
  const auto heap = cache.lookup_artifact("fp");
  ASSERT_TRUE(heap.has_value());
  EXPECT_EQ(heap->bytes, bytes);
  EXPECT_FALSE(heap->mapping);
  EXPECT_FALSE(heap->from_disk);
  EXPECT_EQ(cache.stats().memory_hits, 1u);

  // With the memory tier dropped, the disk object is mmap'd and promoted...
  cache.clear();
  const auto mapped = cache.lookup_artifact("fp");
  ASSERT_TRUE(mapped.has_value());
  EXPECT_TRUE(mapped->mapping);  // zero-copy: the disk object's pages.
  EXPECT_FALSE(mapped->bytes);
  EXPECT_TRUE(mapped->from_disk);
  EXPECT_EQ(std::string(mapped->envelope), *bytes);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.memory_bytes(), bytes->size());  // bytes only, no value.
  // ...so the next lookup is a memory hit on the same mapping.
  const auto again = cache.lookup_artifact("fp");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->mapping, mapped->mapping);
  EXPECT_FALSE(again->from_disk);
  EXPECT_EQ(cache.stats().memory_hits, 2u);
  EXPECT_EQ(decode_calls(), decodes_before) << "byte lookups never decode";

  EXPECT_FALSE(cache.lookup_artifact("absent").has_value());
}

TEST(ScheduleCache, MemoryTierChargesEnvelopeBytesOnly) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  const GeneratedSchedule schedule = make_sized(80, 6);
  ScheduleCache cache(options);
  const auto bytes = cache.insert("fp", schedule);
  EXPECT_EQ(cache.memory_bytes(), bytes->size());
  const auto hit = cache.lookup("fp");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->concurrent_flow, schedule.concurrent_flow);
  EXPECT_EQ(cache.memory_bytes(), bytes->size()) << "no decoded value is kept";

  // A disk object a lookup() promotes is charged the same bytes, and every
  // later lookup() decodes them again.
  ScheduleCache fresh(options);
  ASSERT_TRUE(fresh.lookup("fp").has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  EXPECT_EQ(fresh.memory_bytes(), bytes->size());
  const std::uint64_t before = decode_calls();
  ASSERT_TRUE(fresh.lookup("fp").has_value());
  EXPECT_EQ(decode_calls(), before + 1);
  EXPECT_EQ(fresh.stats().memory_hits, 1u);
  EXPECT_EQ(fresh.memory_bytes(), bytes->size());
}

TEST(ScheduleCache, FailedDecodeQuarantinesAndEvictsPromotedEntry) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  {
    ScheduleCache writer(options);
    writer.insert("fp", make_sized(80, 7));
  }
  ScheduleCache cache(options);
  ASSERT_TRUE(cache.lookup_artifact("fp").has_value());
  ASSERT_EQ(cache.size(), 1u);
  // The object rots after it was promoted: its frame header and trailer
  // still check out, but the envelope CRC no longer does.
  const std::string path = cache.entry_path("fp");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xEE');
  }
  const ScheduleCacheStats before = cache.stats();
  EXPECT_FALSE(cache.lookup("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(cache.stats().hits(), before.hits()) << "a failed decode is no hit";
  EXPECT_EQ(cache.size(), 0u) << "the memory entry is evicted at once";
  EXPECT_EQ(cache.memory_bytes(), 0u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(
      fs::exists(dir.path / "quarantine" / fs::path(path).filename()));
  EXPECT_FALSE(cache.lookup_artifact("fp").has_value());
}

TEST(ScheduleCache, DiskWriteFailureStillServesFromMemory) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = unwritable_dir(dir.path);
  ScheduleCache cache(options);
  const GeneratedSchedule schedule = make_sized(40, 2);
  std::shared_ptr<const std::string> bytes;
  ASSERT_NO_THROW(bytes = cache.insert("fp", schedule));
  ASSERT_TRUE(bytes);
  EXPECT_EQ(*bytes, generated_schedule_to_bytes(schedule));
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().disk_writes, 0u);
  EXPECT_TRUE(cache.entry_path("fp").empty());
  // Both lookups are memory hits on what insert() kept.
  const auto view = cache.lookup_artifact("fp");
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bytes, bytes);
  const auto hit = cache.lookup("fp");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->concurrent_flow, schedule.concurrent_flow);
  EXPECT_EQ(cache.stats().memory_hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ScheduleCache, LookupArtifactQuarantinesCorruptObjects) {
  const TempDir dir;
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 0;  // force lookups to the disk tier
  ScheduleCache cache(std::move(options));
  cache.insert("fp", make_sized(80, 5));
  const std::string path = cache.entry_path("fp");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("GARB", 4);  // destroy the envelope magic.
  }
  EXPECT_FALSE(cache.lookup_artifact("fp").has_value());
  EXPECT_EQ(cache.stats().disk_corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));  // moved into quarantine/.
}

TEST(ScheduleCache, ConcurrentHammerStaysConsistent) {
  // Satellite audit gate: every public operation from many threads at once,
  // with eviction pressure on both tiers, must neither throw nor corrupt
  // the counters. Disk GC racing mmap'd readers is safe by construction
  // (POSIX keeps unlinked pages alive); a reader racing a deletion degrades
  // to a miss.
  const TempDir dir;
  std::size_t artifact_bytes = 0;
  {
    ScheduleCacheOptions probe_options;
    probe_options.disk_dir = (dir.path / "probe").string();
    ScheduleCache probe(std::move(probe_options));
    probe.insert("probe", make_sized(120, 0));
    artifact_bytes = probe.disk_bytes();
  }
  ScheduleCacheOptions options;
  options.disk_dir = dir.path.string();
  options.max_memory_bytes = 64 * 1024;       // forces LRU evictions.
  options.max_disk_bytes = artifact_bytes * 3;  // forces disk GC.
  ScheduleCache cache(std::move(options));

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int tag = (t + i) % 6;
        const std::string fp = "fp" + std::to_string(tag);
        switch (i % 4) {
          case 0:
            cache.insert(fp, make_sized(120, tag));
            break;
          case 1:
            if (const auto hit = cache.lookup(fp)) {
              ASSERT_EQ(static_cast<int>(hit->concurrent_flow), tag);
              served.fetch_add(1);
            }
            break;
          case 2:
            if (const auto view = cache.lookup_artifact(fp)) {
              // Decode the served bytes even if GC unlinks the object
              // underneath us — the mmap pins the pages.
              const GeneratedSchedule decoded =
                  generated_schedule_from_bytes(view->envelope);
              ASSERT_EQ(static_cast<int>(decoded.concurrent_flow), tag);
              served.fetch_add(1);
            }
            break;
          case 3:
            (void)cache.stats();
            (void)cache.disk_object_count();
            (void)cache.disk_bytes();
            (void)cache.entry_path(fp);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.memory_hits + stats.disk_hits + stats.misses);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(stats.disk_corrupt, 0u);
  // The budgets held despite the concurrency.
  EXPECT_LE(cache.memory_bytes(), 64u * 1024u);
  EXPECT_LE(cache.disk_bytes(), artifact_bytes * 3);
}

}  // namespace
}  // namespace a2a
