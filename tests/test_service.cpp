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
#include <cstring>
#include <filesystem>
#include <fstream>
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
