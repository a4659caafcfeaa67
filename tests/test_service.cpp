// Schedule service: broker coalescing, zero-copy artifact serving,
// deadline admission, and the HTTP transport round trip.
#include "service/broker.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "graph/topologies.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace a2a {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("a2a_service_test_" + std::to_string(::getpid()) + "_" +
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

/// Mints a fingerprint no other test has used: path_diversity_threshold is
/// fingerprint-relevant but, at values far above any small topology's
/// actual diversity, never flips a Fig. 1 branch — the schedule is
/// identical, the identity is fresh.
ToolchainOptions fresh_options() {
  static std::atomic<long long> next{100000};
  ToolchainOptions options;
  options.path_diversity_threshold = next.fetch_add(1);
  return options;
}

// ---- request vocabulary -----------------------------------------------------

TEST(ServiceRequest, QueryRoundTrip) {
  service::ServiceRequest request;
  request.spec.topology = "genkautz";
  request.spec.nodes = 27;
  request.spec.degree = 4;
  request.fabric = "gpu";
  request.deadline_ms = 250.0;
  request.options.path_diversity_threshold = 777;
  const std::string query = service::canonical_query(request);
  const service::ServiceRequest parsed = service::parse_service_request(query);
  EXPECT_EQ(parsed.spec.topology, "genkautz");
  EXPECT_EQ(parsed.spec.nodes, 27);
  EXPECT_EQ(parsed.spec.degree, 4);
  EXPECT_EQ(parsed.fabric, "gpu");
  EXPECT_DOUBLE_EQ(parsed.deadline_ms, 250.0);
  EXPECT_EQ(parsed.options.path_diversity_threshold, 777);
}

TEST(ServiceRequest, CanonicalQueryEscapesReservedCharacters) {
  // A value holding '&' and '=' must not read back as another key: torus3d
  // reads "3x3x2&fabric=gpu" as 3x3x2, so unescaped this request would
  // canonicalize like {dims=3x3x2, fabric=gpu}, a different fingerprint.
  service::ServiceRequest smuggled;
  smuggled.spec.dims = "3x3x2&fabric=gpu";
  service::ServiceRequest plain;
  plain.spec.dims = "3x3x2";
  plain.fabric = "gpu";
  EXPECT_NE(service::canonical_query(smuggled), service::canonical_query(plain));
  for (const std::string dims : {"3x3x2&fabric=gpu", "a+b%20c", "x y=z%"}) {
    smuggled.spec.dims = dims;
    const service::ServiceRequest parsed =
        service::parse_service_request(service::canonical_query(smuggled));
    EXPECT_EQ(parsed.spec.dims, dims);
    EXPECT_EQ(parsed.fabric, "cerio");
  }
  // Plain values, the only kind the benches send, are emitted as they are.
  plain.options.workload.demand = DemandSpec::parse("zipf:0.6");
  EXPECT_EQ(service::canonical_query(plain),
            "demand=zipf:0.6&dims=3x3x2&fabric=gpu");
}

TEST(ServiceRequest, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)service::parse_service_request("bogus=1"),
               InvalidArgument);
  EXPECT_THROW((void)service::parse_service_request("nodes=abc"),
               InvalidArgument);
  EXPECT_THROW((void)service::parse_service_request("topology"),
               InvalidArgument);
  EXPECT_THROW((void)service::build_topology({.topology = "nosuch"}),
               InvalidArgument);
  EXPECT_THROW((void)service::build_fabric("nosuch"), InvalidArgument);
}

TEST(ServiceRequest, WorkloadKeysRoundTripAndCanonicalize) {
  const service::ServiceRequest parsed = service::parse_service_request(
      "topology=genkautz&nodes=12&degree=3&demand=zipf:1.2&collective=rs");
  EXPECT_EQ(parsed.options.workload.collective, CollectiveKind::kReduceScatter);
  EXPECT_EQ(parsed.options.workload.demand.kind, DemandSpec::Kind::kZipf);
  EXPECT_DOUBLE_EQ(parsed.options.workload.demand.zipf_s, 1.2);
  // Canonicalization emits the workload keys (alphabetical, defaults
  // elided) and re-parsing reproduces the request.
  const std::string canonical = service::canonical_query(parsed);
  EXPECT_NE(canonical.find("collective=rs"), std::string::npos);
  EXPECT_NE(canonical.find("demand=zipf:1.2"), std::string::npos);
  const service::ServiceRequest again =
      service::parse_service_request(canonical);
  EXPECT_EQ(again.options.workload, parsed.options.workload);
  // Long-form aliases resolve to the same canonical collective.
  EXPECT_EQ(service::parse_service_request("collective=reduce-scatter")
                .options.workload.collective,
            CollectiveKind::kReduceScatter);
  // The default workload stays elided — historical queries canonicalize
  // unchanged.
  service::ServiceRequest plain;
  plain.spec.nodes = 12;
  EXPECT_EQ(service::canonical_query(plain).find("collective"),
            std::string::npos);
}

TEST(ServiceRequest, WorkloadsMintDistinctFingerprints) {
  const DiGraph topo = service::build_topology(
      {.topology = "genkautz", .nodes = 12, .degree = 3});
  const Fabric fabric = service::build_fabric("cerio");
  const auto fp = [&](const char* query) {
    return schedule_fingerprint(topo, fabric,
                                service::parse_service_request(query).options);
  };
  const std::string base = fp("");
  const std::string skewed = fp("demand=zipf:1.2");
  const std::string rs = fp("collective=rs");
  const std::string rs_skewed = fp("demand=zipf:1.2&collective=rs");
  EXPECT_NE(base, skewed);
  EXPECT_NE(base, rs);
  EXPECT_NE(skewed, rs);
  EXPECT_NE(rs, rs_skewed);
  // And the uniform-workload fingerprint is exactly the pre-workload one:
  // an explicitly-spelled default elides from the fingerprint.
  EXPECT_EQ(base, fp("collective=a2a&demand=uniform"));
}

TEST(ServiceRequest, MalformedWorkloadValuesThrow) {
  for (const char* query :
       {"collective=broadcast", "collective=", "demand=zipf",
        "demand=zipf:junk", "demand=zipf:9.5", "demand=block:0",
        "demand=nosuch"}) {
    EXPECT_THROW((void)service::parse_service_request(query), InvalidArgument)
        << query;
  }
}

TEST(ServiceRequest, BuildersMatchSchedgenFamilies) {
  service::TopologySpec spec;
  spec.topology = "genkautz";
  spec.nodes = 27;
  spec.degree = 4;
  EXPECT_EQ(service::build_topology(spec).num_nodes(), 27);
  EXPECT_EQ(service::build_fabric("cerio").name,
            hpc_cerio_fabric().name);
}

TEST(ServiceRequest, SeedReadsAllSixtyFourBitsThroughFlagAndQuery) {
  // 2^53 + 1 has no double: read through one, the query's seed became 2^53
  // and built another random graph than schedgen's flag.
  constexpr std::uint64_t kSeed = 9007199254740993ULL;
  const service::ServiceRequest query = service::parse_service_request(
      "topology=randomregular&nodes=16&degree=3&seed=9007199254740993");
  service::ServiceRequest flags;
  for (const auto& [key, value] :
       {std::pair{"topology", "randomregular"}, std::pair{"nodes", "16"},
        std::pair{"degree", "3"}, std::pair{"seed", "9007199254740993"}}) {
    ASSERT_TRUE(service::set_schedule_key(flags, key, value)) << key;
  }
  EXPECT_EQ(query.spec.seed, kSeed);
  EXPECT_EQ(flags.spec.seed, kSeed);
  const Fabric fabric = service::build_fabric("cerio");
  const auto fp = [&](const service::TopologySpec& spec) {
    return schedule_fingerprint(service::build_topology(spec), fabric,
                                ToolchainOptions{});
  };
  service::TopologySpec direct{
      .topology = "randomregular", .nodes = 16, .degree = 3, .seed = kSeed};
  EXPECT_EQ(fp(query.spec), fp(direct));
  EXPECT_EQ(fp(flags.spec), fp(direct));
  direct.seed = kSeed - 1;  // the seed the double read
  EXPECT_NE(fp(query.spec), fp(direct));
}

TEST(ServiceRequest, ThresholdRoundTripsAtItsFieldsWidth) {
  service::ServiceRequest request;
  request.options.path_diversity_threshold = 3'000'000'000LL;
  const std::string query = service::canonical_query(request);
  EXPECT_EQ(query, "path_diversity_threshold=3000000000");
  EXPECT_EQ(service::parse_service_request(query)
                .options.path_diversity_threshold,
            3'000'000'000LL);
}

TEST(ServiceRequest, MalformedNumbersAreRejected) {
  for (const char* query :
       {"seed=1.9", "seed=-1", "seed=18446744073709551616", "nodes=%2B8",
        "nodes=%208", "nodes=8%20", "nodes=0x10", "nodes=2147483648",
        "degree=", "path_diversity_threshold=9223372036854775808",
        "deadline_ms=-1", "deadline_ms=inf", "deadline_ms=nan",
        "deadline_ms=1e400", "trace=1x", "demand=perm:1.5",
        "demand=perm:-1", "demand=block:2.0"}) {
    EXPECT_THROW((void)service::parse_service_request(query), InvalidArgument)
        << query;
  }
  // Leading zeros are still plain decimal.
  EXPECT_EQ(service::parse_service_request("nodes=008").spec.nodes, 8);
}

TEST(ServiceRequest, MalformedDimsAreInvalidArguments) {
  for (const char* dims : {"axb", "3x3x2junk", "3xx2", "99999999999x1",
                           "3x3x", "", "+3x3", "0x3"}) {
    EXPECT_THROW((void)service::build_topology({.dims = dims}),
                 InvalidArgument) << dims;
  }
  EXPECT_EQ(service::build_topology({.dims = "3x3x2"}).num_nodes(), 18);
}

// ---- broker: coalescing -----------------------------------------------------

TEST(ScheduleBroker, ConcurrentIdenticalRequestsRunOneSynthesis) {
  TempDir dir;
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);

  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();

  const std::uint64_t runs_before = pipeline_invocations();
  constexpr int kThreads = 8;
  std::vector<service::BrokerResult> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] =
          broker.request(topo, fabric, options);
    });
  }
  for (auto& th : threads) th.join();

  // The whole point: N concurrent identical misses, ONE pipeline run.
  EXPECT_EQ(pipeline_invocations() - runs_before, 1u);

  // Everyone got byte-identical artifact bytes.
  const std::string reference(results[0].view.envelope);
  int leaders = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.view.valid());
    EXPECT_EQ(std::string(r.view.envelope), reference);
    if (r.synth_seconds > 0.0) ++leaders;
    if (!r.hit && !r.coalesced) {
      EXPECT_GT(r.synth_seconds, 0.0);
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(broker.inflight(), 0u);

  // And a later request is a pure hit.
  const auto again = broker.request(topo, fabric, options);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(pipeline_invocations() - runs_before, 1u);
}

TEST(ScheduleBroker, LeaderFailurePropagatesAndClearsTheSlot) {
  service::ScheduleBroker broker(nullptr, nullptr);

  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  ToolchainOptions failing = fresh_options();
  // An unmeetable cooperative time limit: the pipeline dies with a
  // SolverError naming "time-limit" on every attempt.
  failing.mcf.lp.time_limit_s = 1e-9;
  const std::string fp = schedule_fingerprint(topo, fabric, failing);

  // Several concurrent requests with the failing options: whichever becomes
  // leader throws, and every coalesced waiter inherits the SAME exception
  // instead of hanging (cancellation propagates).
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        (void)broker.request(fp, topo, fabric, failing);
      } catch (const SolverError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(broker.inflight(), 0u);

  // The failure cleared the in-flight slot: the same fingerprint with sane
  // options synthesizes fresh instead of inheriting the stale error.
  ToolchainOptions sane = failing;
  sane.mcf.lp.time_limit_s = 0.0;
  const auto result = broker.request(fp, topo, fabric, sane);
  EXPECT_TRUE(result.view.valid());
  EXPECT_FALSE(result.hit);
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(ScheduleBroker, RepeatHitsAreServedFromTheCacheMemoryTier) {
  TempDir dir;
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);

  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();

  const auto miss = broker.request(topo, fabric, options);
  ASSERT_TRUE(miss.view.valid());
  EXPECT_TRUE(miss.view.bytes);  // miss path serves the bytes insert() wrote.

  const ScheduleCacheStats before = cache.stats();
  const std::uint64_t hot_before = counter_value("service.hot_hits");
  const std::uint64_t artifact_before = counter_value("service.artifact_hits");
  const auto hit = broker.request(topo, fabric, options);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(cache.stats().memory_hits, before.memory_hits + 1);
  EXPECT_EQ(cache.stats().disk_hits, before.disk_hits);
  // The hit shares the very buffer insert() stored: no second copy.
  EXPECT_EQ(hit.view.bytes, miss.view.bytes);
  EXPECT_EQ(std::string(hit.view.envelope), std::string(miss.view.envelope));
  EXPECT_EQ(counter_value("service.hot_hits"), hot_before + 1);
  EXPECT_EQ(counter_value("service.artifact_hits"), artifact_before);
}

TEST(ScheduleBroker, DiskWriteFailureStillServesRepeatsAsHits) {
  TempDir dir;
  std::ofstream(dir.path / "blocker") << "not a directory";
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = (dir.path / "blocker" / "cache").string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);

  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();
  const std::uint64_t runs_before = pipeline_invocations();

  service::BrokerResult first;
  ASSERT_NO_THROW(first = broker.request(topo, fabric, options));
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  const auto second = broker.request(topo, fabric, options);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(std::string(second.view.envelope), std::string(first.view.envelope));
  EXPECT_EQ(pipeline_invocations() - runs_before, 1u);
}

TEST(ScheduleBroker, ColdBrokerServesMmapViewFromDiskTier) {
  TempDir dir;
  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();
  const std::string fp = schedule_fingerprint(topo, fabric, options);
  {
    ScheduleCacheOptions cache_options;
    cache_options.disk_dir = dir.path.string();
    ScheduleCache cache(std::move(cache_options));
    service::ScheduleBroker warm(&cache, nullptr);
    (void)warm.request(topo, fabric, options);
  }
  // A different process (modeled by a fresh cache + broker): the hit is the
  // artifact's mmap, not a heap copy — the zero-copy serving path.
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker cold(&cache, nullptr);
  const auto view = cold.try_lookup(fp);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->mapping);
  EXPECT_FALSE(view->bytes);
  // The inner frame is a decodable SchedBin container.
  const SchedBinReader reader = SchedBinReader::from_bytes(view->schedbin());
  EXPECT_GT(reader.info().record_count, 0u);
}

// ---- admission --------------------------------------------------------------

TEST(AdmissionQueue, ServesHitsAndRejectsMissesWhenQueueFull) {
  TempDir dir;
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);

  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();
  // Warm the cache through a permissive queue.
  {
    service::AdmissionQueue admit(&broker);
    const auto reply = admit.serve(topo, fabric, options);
    ASSERT_EQ(reply.outcome, service::ServiceOutcome::kServed);
    EXPECT_FALSE(reply.hit);
  }
  // max_pending = 0: serve-from-cache-only mode. Hits still flow; a fresh
  // fingerprint is rejected up front.
  service::AdmissionOptions admission_options;
  admission_options.max_pending = 0;
  service::AdmissionQueue admit(&broker, admission_options);
  const auto hit = admit.serve(topo, fabric, options);
  EXPECT_EQ(hit.outcome, service::ServiceOutcome::kServed);
  EXPECT_TRUE(hit.hit);
  const auto miss = admit.serve(topo, fabric, fresh_options());
  EXPECT_EQ(miss.outcome, service::ServiceOutcome::kRejectedQueueFull);
  EXPECT_FALSE(miss.view.valid());
}

TEST(AdmissionQueue, ExpiredDeadlineIsShedNotFailed) {
  service::ScheduleBroker broker(nullptr, nullptr);
  service::AdmissionQueue admit(&broker);
  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  // A microsecond deadline: the cooperative time limit fires inside the
  // pipeline and admission maps it to a shed, not a pipeline failure.
  const auto reply = admit.serve(topo, fabric, fresh_options(), 1e-3);
  EXPECT_EQ(reply.outcome, service::ServiceOutcome::kShedDeadline);
  EXPECT_FALSE(reply.error.empty());
}

TEST(AdmissionQueue, DeadlineBoundsAnFptasMissAndCachesNothing) {
  // GenKautz(60,4) on Cerio is past exact_master_limit, so its pMCF runs
  // the FPTAS, which must stop on the request's budget as the LP does. The
  // miss is shed, and nothing cut short by the budget is cached under the
  // fingerprint, which does not carry the budget.
  ScheduleCache cache;
  service::ScheduleBroker broker(&cache, nullptr);
  service::AdmissionQueue admit(&broker);
  const DiGraph topo = make_generalized_kautz(60, 4);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options;
  const auto shed = admit.serve(topo, fabric, options, 5.0);
  EXPECT_EQ(shed.outcome, service::ServiceOutcome::kShedDeadline);
  EXPECT_NE(shed.error.find("time-limit"), std::string::npos) << shed.error;
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_FALSE(cache.lookup(shed.fingerprint).has_value());

  // The same key without a deadline is served, with the F a fresh
  // synthesis finds.
  const auto served = admit.serve(topo, fabric, options);
  ASSERT_EQ(served.outcome, service::ServiceOutcome::kServed);
  EXPECT_FALSE(served.hit);
  const auto cached = cache.lookup(served.fingerprint);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->kind, ScheduleKind::kPathPMcf);
  const GeneratedSchedule fresh = synthesize_schedule(topo, fabric, options);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->concurrent_flow),
            std::bit_cast<std::uint64_t>(fresh.concurrent_flow));
}

TEST(AdmissionQueue, UnmeetableDeadlineIsShedUpfrontViaEwma) {
  service::ScheduleBroker broker(nullptr, nullptr);
  service::AdmissionQueue admit(&broker);
  const DiGraph topo = make_ring(6);
  const Fabric fabric = hpc_cerio_fabric();
  // Prime the synthesis-time estimate with a real miss.
  const auto first = admit.serve(topo, fabric, fresh_options());
  ASSERT_EQ(first.outcome, service::ServiceOutcome::kServed);
  ASSERT_GT(admit.ewma_synth_seconds(), 0.0);
  // A deadline far below the estimate is shed WITHOUT spending pipeline
  // time: the pipeline never runs for it.
  const double hopeless_ms = admit.ewma_synth_seconds() * 1000.0 / 100.0;
  const std::uint64_t runs_before = pipeline_invocations();
  const auto reply = admit.serve(topo, fabric, fresh_options(), hopeless_ms);
  EXPECT_EQ(reply.outcome, service::ServiceOutcome::kShedDeadline);
  EXPECT_EQ(pipeline_invocations(), runs_before);
}

TEST(AdmissionQueue, UncountableDeadlineIsNoDeadline) {
  // 1e300 ms overflows steady_clock's ticks: armed on the clock it had
  // passed already, so the leader's LP stopped on "time-limit" and its
  // coalesced waiters gave up at once. Beyond kMaxBudgetSeconds a budget is
  // no budget, and the leader and its waiters are served.
  service::ScheduleBroker broker(nullptr, nullptr);
  service::AdmissionQueue admit(&broker);
  const DiGraph topo = make_generalized_kautz(27, 4);
  const Fabric fabric = hpc_cerio_fabric();
  const ToolchainOptions options = fresh_options();
  constexpr int kThreads = 4;
  std::vector<service::ServiceReply> replies(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      replies[static_cast<std::size_t>(t)] =
          admit.serve(topo, fabric, options, 1e300);
    });
  }
  for (auto& th : threads) th.join();
  int leaders = 0;
  int coalesced = 0;
  for (const auto& reply : replies) {
    EXPECT_EQ(reply.outcome, service::ServiceOutcome::kServed) << reply.error;
    leaders += !reply.hit && !reply.coalesced ? 1 : 0;
    coalesced += reply.coalesced ? 1 : 0;
  }
  EXPECT_GE(leaders, 1);
  EXPECT_GE(coalesced, 1);
}

// ---- transport --------------------------------------------------------------

/// Minimal HTTP client for the round-trip tests: one request, whole
/// response (headers + body) as a string.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: "
                              "close\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
}

TEST(ScheduleServer, RoundTripServesSchedBinAndMetrics) {
  TempDir dir;
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = dir.path.string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);
  service::AdmissionQueue admission(&broker);
  service::ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = 2;
  service::ScheduleServer server(&admission, server_options);
  server.start();
  ASSERT_GT(server.port(), 0);

  EXPECT_NE(http_request(server.port(), "GET", "/healthz").find("200 OK"),
            std::string::npos);

  const std::string schedule = http_request(
      server.port(), "GET", "/schedule?topology=ring&nodes=6");
  EXPECT_NE(schedule.find("200 OK"), std::string::npos);
  EXPECT_NE(schedule.find("X-A2A-Outcome: served"), std::string::npos);
  EXPECT_NE(schedule.find("X-A2A-Hit: 0"), std::string::npos);
  const std::string payload = body_of(schedule);
  // The body is the raw inner SchedBin frame.
  ASSERT_GE(payload.size(), sizeof kSchedBinMagic);
  EXPECT_EQ(std::memcmp(payload.data(), kSchedBinMagic,
                        sizeof kSchedBinMagic),
            0);

  // Same request again: a hit served from the cache's memory tier.
  const std::string again = http_request(
      server.port(), "GET", "/schedule?topology=ring&nodes=6");
  EXPECT_NE(again.find("X-A2A-Hit: 1"), std::string::npos);
  EXPECT_EQ(body_of(again), payload);

  const std::string metrics = http_request(server.port(), "GET", "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/json"), std::string::npos);
  const std::string metrics_body = body_of(metrics);
  ASSERT_FALSE(metrics_body.empty());
  EXPECT_EQ(metrics_body.front(), '{');
  EXPECT_NE(metrics_body.find("\"service.requests\""), std::string::npos);

  // Weighted and lowered workloads serve end-to-end through the same
  // transport, each under its own fingerprint (a miss, not the ring hit).
  const std::string skewed = http_request(
      server.port(), "GET", "/schedule?topology=ring&nodes=6&demand=zipf:1.2");
  EXPECT_NE(skewed.find("200 OK"), std::string::npos);
  EXPECT_NE(skewed.find("X-A2A-Hit: 0"), std::string::npos);
  EXPECT_NE(body_of(skewed), payload);
  const std::string reduce_scatter = http_request(
      server.port(), "GET", "/schedule?topology=ring&nodes=6&collective=rs");
  EXPECT_NE(reduce_scatter.find("200 OK"), std::string::npos);
  // Repeating the skewed request hits its cached entry.
  EXPECT_NE(
      http_request(server.port(), "GET",
                   "/schedule?topology=ring&nodes=6&demand=zipf:1.2")
          .find("X-A2A-Hit: 1"),
      std::string::npos);

  EXPECT_NE(http_request(server.port(), "GET", "/schedule?bogus=1")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET",
                         "/schedule?topology=ring&nodes=6&demand=zipf:bad")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET",
                         "/schedule?topology=ring&nodes=6&collective=nosuch")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "GET", "/nosuch").find("404"),
            std::string::npos);

  // Graceful stop: POST /shutdown unblocks wait_shutdown().
  std::thread waiter([&server] { server.wait_shutdown(); });
  EXPECT_NE(http_request(server.port(), "POST", "/shutdown").find("200 OK"),
            std::string::npos);
  waiter.join();
  server.stop();
}

// ---- transport: the request memo ---------------------------------------------

std::string header_value(const std::string& response, const std::string& name) {
  const std::string key = "\r\n" + name + ": ";
  const std::size_t head_end = response.find("\r\n\r\n");
  const std::size_t pos = response.find(key);
  if (pos == std::string::npos || pos > head_end) return {};
  const std::size_t start = pos + key.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

/// One keep-alive connection; get() returns one whole response (headers +
/// body), or "" on a transport error.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
  }
  ~KeepAliveClient() { ::close(fd_); }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  std::string get(const std::string& target) {
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      return {};
    }
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!read_more()) return {};
    }
    const std::size_t total =
        head_end + 4 +
        std::stoul(header_value(buf_.substr(0, head_end + 4), "Content-Length"));
    while (buf_.size() < total) {
      if (!read_more()) return {};
    }
    std::string response = buf_.substr(0, total);
    buf_.erase(0, total);
    return response;
  }

 private:
  bool read_more() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
};

/// A live service over a memory-only cache, so ScheduleCache::clear()
/// evicts every artifact.
struct LiveService {
  explicit LiveService(service::AdmissionOptions admission_options = {},
                       unsigned threads = 2)
      : broker(&cache, nullptr),
        admission(&broker, admission_options),
        server(&admission, service::ServerOptions{.threads = threads}) {
    server.start();
  }

  [[nodiscard]] std::string get(const std::string& target) const {
    return http_request(server.port(), "GET", target);
  }

  ScheduleCache cache;
  service::ScheduleBroker broker;
  service::AdmissionQueue admission;
  service::ScheduleServer server;
};

/// A ring request under a fingerprint no other test has used.
std::string fresh_target() {
  return "/schedule?topology=ring&nodes=6&path_diversity_threshold=" +
         std::to_string(fresh_options().path_diversity_threshold);
}

/// Service-wide cache-only admission: a request whose artifact is not
/// cached is rejected (429) without a synthesis, after fingerprinting.
service::AdmissionOptions cache_only() {
  service::AdmissionOptions options;
  options.max_pending = 0;
  return options;
}

TEST(ScheduleServer, RepeatRequestIsServedThroughTheMemo) {
  LiveService live;
  const std::string target = fresh_target();
  const std::string first = live.get(target);
  EXPECT_NE(first.find("X-A2A-Hit: 0"), std::string::npos);
  EXPECT_EQ(live.server.fingerprint_memo_size(), 1u);

  const std::uint64_t memo_hits = counter_value("service.fingerprint_memo_hits");
  const std::uint64_t runs = pipeline_invocations();
  const std::string again = live.get(target);
  EXPECT_NE(again.find("200 OK"), std::string::npos);
  EXPECT_NE(again.find("X-A2A-Hit: 1"), std::string::npos);
  EXPECT_NE(again.find("X-A2A-Coalesced: 0"), std::string::npos);
  EXPECT_EQ(header_value(again, "X-A2A-Fingerprint"),
            header_value(first, "X-A2A-Fingerprint"));
  EXPECT_EQ(header_value(again, "X-A2A-Flow"), header_value(first, "X-A2A-Flow"));
  EXPECT_EQ(body_of(again), body_of(first));
  EXPECT_EQ(counter_value("service.fingerprint_memo_hits"), memo_hits + 1);
  EXPECT_EQ(pipeline_invocations(), runs);
  EXPECT_EQ(live.server.fingerprint_memo_size(), 1u);
}

TEST(ScheduleServer, DeadlineAndTraceVariantsShareOneMemoEntry) {
  LiveService live;
  const std::string threshold =
      std::to_string(fresh_options().path_diversity_threshold);
  const std::string target =
      "/schedule?topology=ring&nodes=6&path_diversity_threshold=" + threshold;
  const std::string first = live.get(target);
  ASSERT_NE(first.find("X-A2A-Hit: 0"), std::string::npos);
  const std::string fingerprint = header_value(first, "X-A2A-Fingerprint");
  ASSERT_EQ(fingerprint.size(), 32u);

  const std::uint64_t memo_hits = counter_value("service.fingerprint_memo_hits");
  const std::vector<std::string> variants = {
      target + "&deadline_ms=250", target + "&trace=1",
      target + "&trace=1&deadline_ms=1000",
      // Key order is not part of the request either.
      "/schedule?path_diversity_threshold=" + threshold +
          "&deadline_ms=250&nodes=6&topology=ring"};
  for (const std::string& variant : variants) {
    const std::string reply = live.get(variant);
    EXPECT_NE(reply.find("X-A2A-Hit: 1"), std::string::npos) << variant;
    EXPECT_EQ(header_value(reply, "X-A2A-Fingerprint"), fingerprint) << variant;
    EXPECT_EQ(body_of(reply), body_of(first)) << variant;
  }
  EXPECT_EQ(counter_value("service.fingerprint_memo_hits"),
            memo_hits + variants.size());
  EXPECT_EQ(live.server.fingerprint_memo_size(), 1u);
}

TEST(ScheduleServer, FingerprintRelevantKeysNeverShareAMemoEntry) {
  // Cache-only admission: each request is fingerprinted, memoized and
  // rejected, so the keys are compared without synthesizing anything.
  LiveService live(cache_only());
  const std::string base =
      "/schedule?topology=xpander&nodes=20&degree=3&fabric=cerio";
  const std::vector<std::string> targets = {
      base,
      base + "&demand=zipf:0.6",
      base + "&collective=rs",
      "/schedule?topology=xpander&nodes=24&degree=3&fabric=cerio",
      base + "&seed=2",
      "/schedule?topology=xpander&nodes=20&degree=3&fabric=oneccl",
      base + "&path_diversity_threshold=777"};
  std::vector<std::string> fingerprints;
  for (const std::string& target : targets) {
    const std::string reply = live.get(target);
    EXPECT_NE(reply.find("429"), std::string::npos) << target;
    fingerprints.push_back(header_value(reply, "X-A2A-Fingerprint"));
    EXPECT_EQ(fingerprints.back().size(), 32u) << target;
    EXPECT_EQ(live.server.fingerprint_memo_size(), fingerprints.size())
        << target;
  }
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j])
          << targets[i] << " vs " << targets[j];
    }
  }
  // Asked again, each request finds its own entry and its own fingerprint.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(header_value(live.get(targets[i]), "X-A2A-Fingerprint"),
              fingerprints[i])
        << targets[i];
  }
  EXPECT_EQ(live.server.fingerprint_memo_size(), targets.size());
}

TEST(ScheduleServer, EscapedValuesNeverShareAMemoEntry) {
  // An escaped '&' stays inside the dims value, and "3x3x2&fabric=gpu" is
  // no torus: the smuggled request is a 400 that leaves no memo entry, in
  // either order, while the plain request for 3x3x2 on gpu is answered
  // under its own fingerprint.
  LiveService live(cache_only());
  const std::string smuggled = "/schedule?dims=3x3x2%26fabric%3Dgpu";
  const std::string plain = "/schedule?dims=3x3x2&fabric=gpu";
  EXPECT_NE(live.get(smuggled).find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(live.server.fingerprint_memo_size(), 0u);
  const std::string b = header_value(live.get(plain), "X-A2A-Fingerprint");
  ASSERT_EQ(b.size(), 32u);
  EXPECT_NE(live.get(smuggled).find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(header_value(live.get(plain), "X-A2A-Fingerprint"), b);
  EXPECT_EQ(live.server.fingerprint_memo_size(), 1u);
}

TEST(ScheduleServer, EvictedMemoEntryFallsThroughToSynthesis) {
  LiveService live;
  const std::string target = fresh_target();
  const std::string first = live.get(target);
  ASSERT_NE(first.find("X-A2A-Hit: 0"), std::string::npos);

  live.cache.clear();  // the memo now names an artifact the cache lacks.
  const std::uint64_t memo_hits = counter_value("service.fingerprint_memo_hits");
  const std::uint64_t runs = pipeline_invocations();
  const std::string again = live.get(target);
  EXPECT_NE(again.find("200 OK"), std::string::npos);
  EXPECT_NE(again.find("X-A2A-Hit: 0"), std::string::npos);
  EXPECT_EQ(pipeline_invocations(), runs + 1);
  EXPECT_EQ(counter_value("service.fingerprint_memo_hits"), memo_hits);
  EXPECT_EQ(header_value(again, "X-A2A-Fingerprint"),
            header_value(first, "X-A2A-Fingerprint"));
  EXPECT_EQ(body_of(again), body_of(first));

  // The re-synthesized artifact is a memo hit again.
  EXPECT_NE(live.get(target).find("X-A2A-Hit: 1"), std::string::npos);
  EXPECT_EQ(counter_value("service.fingerprint_memo_hits"), memo_hits + 1);
  EXPECT_EQ(live.server.fingerprint_memo_size(), 1u);
}

TEST(ScheduleServer, BadRequestsAreNeverMemoized) {
  LiveService live;
  for (int round = 0; round < 2; ++round) {
    for (const char* target :
         {"/schedule?bogus=1", "/schedule?topology=nosuch",
          "/schedule?topology=ring&nodes=6&fabric=nosuch",
          "/schedule?topology=ring&nodes=6&demand=zipf:bad",
          "/schedule?topology=ring&nodes=abc"}) {
      EXPECT_NE(live.get(target).find("400 Bad Request"), std::string::npos)
          << target;
    }
  }
  EXPECT_EQ(live.server.fingerprint_memo_size(), 0u);
}

TEST(ScheduleServer, MalformedNumbersAreBadRequestsNotServerErrors) {
  // Each was a 500 (a raw std:: exception) or served as another request.
  LiveService live;
  for (const char* target :
       {"/schedule?dims=axb", "/schedule?dims=3x3x2junk",
        "/schedule?dims=3xx2", "/schedule?dims=99999999999x1",
        "/schedule?topology=xpander&seed=-1", "/schedule?seed=1.9"}) {
    EXPECT_NE(live.get(target).find("400 Bad Request"), std::string::npos)
        << target;
  }
  EXPECT_EQ(live.server.fingerprint_memo_size(), 0u);
}

TEST(ScheduleServer, FingerprintMemoStaysWithinItsBound) {
  constexpr std::size_t kBound = service::ScheduleServer::kFingerprintMemoEntries;
  LiveService live(cache_only());
  KeepAliveClient client(live.server.port());
  for (std::size_t i = 0; i <= kBound + 8; ++i) {
    const std::string reply = client.get(
        "/schedule?topology=ring&nodes=4&fabric=oneccl&vc_max_layers_warn=" +
        std::to_string(10 + i));
    ASSERT_NE(reply.find("429"), std::string::npos) << i;
    const std::size_t size = live.server.fingerprint_memo_size();
    ASSERT_LE(size, kBound) << i;
    // Full after kBound distinct requests; the next one clears it first.
    if (i + 1 == kBound) EXPECT_EQ(size, kBound);
    if (i == kBound) EXPECT_EQ(size, 1u);
  }
}

TEST(ScheduleServer, RequestCountersCountEveryRequestAndMemoHits) {
  LiveService live;
  const std::string warm = fresh_target();
  ASSERT_NE(live.get(warm).find("200 OK"), std::string::npos);

  constexpr int kRepeats = 5;
  constexpr int kFresh = 3;
  const std::uint64_t requests = counter_value("service.requests");
  const std::uint64_t memo_hits = counter_value("service.fingerprint_memo_hits");
  for (int i = 0; i < kRepeats + kFresh; ++i) {
    const bool fresh = i % 2 == 1 && i < 2 * kFresh;
    const std::string reply = live.get(fresh ? fresh_target() : warm);
    EXPECT_NE(reply.find("200 OK"), std::string::npos);
    EXPECT_NE(reply.find(fresh ? "X-A2A-Hit: 0" : "X-A2A-Hit: 1"),
              std::string::npos);
  }
  EXPECT_EQ(counter_value("service.requests"), requests + kRepeats + kFresh);
  EXPECT_EQ(counter_value("service.fingerprint_memo_hits"),
            memo_hits + kRepeats);
}

TEST(ScheduleServer, ConcurrentHitsMissesAndEvictionsServeOneArtifactEach) {
  LiveService live({}, /*threads=*/4);
  std::vector<std::string> warm;
  for (int i = 0; i < 3; ++i) {
    warm.push_back(fresh_target());
    ASSERT_NE(live.get(warm.back()).find("200 OK"), std::string::npos);
  }
  std::vector<std::string> fresh;
  for (int i = 0; i < 4; ++i) fresh.push_back(fresh_target());

  struct Served {
    std::string fingerprint, body;
    bool ok = false;
  };
  const auto serve_all = [&](const std::vector<std::string>& targets, int reps,
                             std::vector<Served>& out) {
    KeepAliveClient client(live.server.port());
    for (int r = 0; r < reps; ++r) {
      for (const std::string& target : targets) {
        const std::string reply = client.get(target);
        out.push_back({header_value(reply, "X-A2A-Fingerprint"), body_of(reply),
                       reply.find("200 OK") != std::string::npos});
      }
    }
  };
  std::vector<Served> logs[3];
  std::atomic<bool> done{false};
  std::thread evictor([&] {
    while (!done.load()) {
      live.cache.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread hits_a([&] { serve_all(warm, 15, logs[0]); });
  std::thread hits_b([&] { serve_all(warm, 15, logs[1]); });
  std::thread misses([&] { serve_all(fresh, 2, logs[2]); });
  hits_a.join();
  hits_b.join();
  misses.join();
  done.store(true);
  evictor.join();

  std::map<std::string, std::string> body_by_fingerprint;
  std::size_t served = 0;
  for (const auto& log : logs) {
    for (const Served& s : log) {
      ASSERT_TRUE(s.ok);
      ASSERT_EQ(s.fingerprint.size(), 32u);
      ++served;
      const auto [it, inserted] = body_by_fingerprint.try_emplace(s.fingerprint, s.body);
      EXPECT_EQ(it->second, s.body) << s.fingerprint;
    }
  }
  EXPECT_EQ(served, 2u * 15u * warm.size() + 2u * fresh.size());
  EXPECT_EQ(body_by_fingerprint.size(), warm.size() + fresh.size());
  EXPECT_EQ(live.server.fingerprint_memo_size(), warm.size() + fresh.size());
}

TEST(ScheduleServer, DeadlineQueryIsHonored) {
  service::ScheduleBroker broker(nullptr, nullptr);
  service::AdmissionQueue admission(&broker);
  service::ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = 1;
  service::ScheduleServer server(&admission, server_options);
  server.start();
  const std::string response = http_request(
      server.port(), "GET", "/schedule?topology=ring&nodes=6&deadline_ms=0.001");
  EXPECT_NE(response.find("504"), std::string::npos);
  EXPECT_NE(response.find("X-A2A-Outcome: shed-deadline"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace a2a
