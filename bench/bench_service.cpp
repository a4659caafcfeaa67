// Schedule service harness — latency and coalescing under mixed traffic.
//
//   bench_service [--smoke] [--json PATH]
//
// Drives the layered service (broker + admission, no HTTP in the loop) on
// GenKautz(27, d=4) and measures the three behaviours the service exists
// for:
//
//   * zero-copy hit path: repeated serves of a warm fingerprint — the reply
//     is an ArtifactView over the cache's mmap/heap bytes, never a decode.
//   * request coalescing: K threads issue the SAME fresh fingerprint at a
//     barrier; the LP/MCF pipeline must run exactly once.
//   * mixed traffic: W workers over a warm working set with unique misses
//     and one shared "dedup" miss interleaved — outcomes, per-class
//     latency, and served-throughput under contention.
//
// --smoke gates the service SLOs for CI: hit p50 < 1 ms, K identical
// concurrent misses collapse to exactly one synthesis, and zero requests
// dropped while schedulable (no deadline, queue not full => everything must
// be kServed). --json PATH appends a BENCH_service.json record; without it
// nothing is written.
#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "service/admission.hpp"
#include "service/broker.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("a2a_bench_service_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct LatStats {
  std::vector<double> seconds;

  void add(double s) { seconds.push_back(s); }
  [[nodiscard]] double percentile(double p) const {
    if (seconds.empty()) return 0.0;
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  [[nodiscard]] double mean() const {
    if (seconds.empty()) return 0.0;
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum / static_cast<double>(seconds.size());
  }
  [[nodiscard]] double max() const {
    return seconds.empty() ? 0.0
                           : *std::max_element(seconds.begin(), seconds.end());
  }
};

std::string format_seconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  }
  return buf;
}

/// Mints a fingerprint this process has not used: path_diversity_threshold
/// is fingerprint-relevant but, at values far above GenKautz(27,4)'s actual
/// diversity, never flips the Fig. 1 branch — same schedule, fresh
/// identity (the test suites use the same trick).
ToolchainOptions fresh_options() {
  static std::atomic<long long> next{10'000'000};
  ToolchainOptions options;
  options.path_diversity_threshold = next.fetch_add(1);
  return options;
}

void lat_json(std::ostringstream& js, const char* name, const LatStats& st) {
  js << "\"" << name << "\": {\"count\": " << st.seconds.size()
     << ", \"mean_s\": " << st.mean() << ", \"p50_s\": " << st.percentile(0.5)
     << ", \"p99_s\": " << st.percentile(0.99) << ", \"max_s\": " << st.max()
     << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "=== Schedule service: zero-copy hits, coalescing, mixed "
               "traffic ===\n";

  TempDir dir;
  ScheduleCacheOptions cache_options;
  cache_options.disk_dir = (dir.path / "cache").string();
  ScheduleCache cache(std::move(cache_options));
  service::ScheduleBroker broker(&cache, nullptr);
  service::AdmissionQueue admission(&broker);

  const DiGraph g27 = make_generalized_kautz(27, 4);
  const Fabric fabric = hpc_cerio_fabric();
  std::cout << "\n" << g27.summary() << "\n";

  // ---- leg 1: cold synthesis + zero-copy hit path -------------------------
  const ToolchainOptions warm_options = fresh_options();
  const auto cold = admission.serve(g27, fabric, warm_options);
  if (cold.outcome != service::ServiceOutcome::kServed) {
    std::cerr << "FAIL: cold synthesis not served: " << cold.error << "\n";
    return 1;
  }
  std::cout << "cold miss (leader synthesis): "
            << format_seconds(cold.total_seconds) << ", artifact "
            << cold.view.envelope.size() << " bytes\n";
  const double cold_synth_s = cold.total_seconds;

  LatStats hit_path;
  const int hit_reps = smoke ? 200 : 2000;
  bool hit_path_clean = true;
  for (int i = 0; i < hit_reps; ++i) {
    const auto reply = admission.serve(g27, fabric, warm_options);
    if (reply.outcome != service::ServiceOutcome::kServed || !reply.hit) {
      hit_path_clean = false;
      continue;
    }
    hit_path.add(reply.total_seconds);
  }
  std::cout << "zero-copy hit path: p50 "
            << format_seconds(hit_path.percentile(0.5)) << ", p99 "
            << format_seconds(hit_path.percentile(0.99)) << " over "
            << hit_path.seconds.size() << " reps\n";

  // ---- leg 2: K identical concurrent misses -> ONE synthesis --------------
  const int kCoalesce = 8;
  const ToolchainOptions dedup_options = fresh_options();
  const std::uint64_t runs_before = pipeline_invocations();
  std::vector<service::ServiceReply> coalesce_replies(kCoalesce);
  {
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kCoalesce);
    for (int t = 0; t < kCoalesce; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kCoalesce) std::this_thread::yield();
        coalesce_replies[static_cast<std::size_t>(t)] =
            admission.serve(g27, fabric, dedup_options);
      });
    }
    for (auto& th : threads) th.join();
  }
  const std::uint64_t coalesce_runs = pipeline_invocations() - runs_before;
  int coalesced_waiters = 0;
  int coalesce_served = 0;
  for (const auto& r : coalesce_replies) {
    if (r.outcome == service::ServiceOutcome::kServed) ++coalesce_served;
    if (r.coalesced) ++coalesced_waiters;
  }
  std::cout << kCoalesce << " concurrent identical misses: " << coalesce_runs
            << " pipeline run(s), " << coalesced_waiters
            << " coalesced waiter(s), " << coalesce_served << "/" << kCoalesce
            << " served\n";

  // ---- leg 3: mixed hit/miss/dedup traffic --------------------------------
  // Warm working set the hit traffic rotates over; each worker also carries
  // one unique miss (staggered) and every worker races one shared dedup
  // fingerprint at the same iteration.
  const int workers = smoke ? 4 : 8;
  const int reps_per_worker = smoke ? 150 : 600;
  const int warm_count = smoke ? 2 : 4;
  std::vector<ToolchainOptions> warm_set;
  warm_set.push_back(warm_options);
  for (int i = 1; i < warm_count; ++i) {
    warm_set.push_back(fresh_options());
    const auto warm = admission.serve(g27, fabric, warm_set.back());
    if (warm.outcome != service::ServiceOutcome::kServed) {
      std::cerr << "FAIL: warm-set synthesis not served: " << warm.error
                << "\n";
      return 1;
    }
  }
  std::vector<ToolchainOptions> unique_miss(workers);
  for (auto& options : unique_miss) options = fresh_options();
  const ToolchainOptions shared_miss = fresh_options();

  const std::uint64_t mixed_runs_before = pipeline_invocations();
  std::mutex stats_mutex;
  LatStats mixed_hit, mixed_miss, mixed_coalesced;
  std::atomic<int> served{0}, rejected{0}, shed{0}, failed{0};
  std::atomic<int> mixed_ready{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const double stream_t0 = now_seconds();
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      mixed_ready.fetch_add(1);
      while (mixed_ready.load() < workers) std::this_thread::yield();
      for (int i = 0; i < reps_per_worker; ++i) {
        // Unique miss staggered per worker; shared dedup miss at the same
        // iteration on every worker; warm-set hits otherwise.
        const ToolchainOptions* options;
        if (i == reps_per_worker / 4 + w) {
          options = &unique_miss[static_cast<std::size_t>(w)];
        } else if (i == reps_per_worker / 2) {
          options = &shared_miss;
        } else {
          options = &warm_set[static_cast<std::size_t>(
              (w + i) % warm_set.size())];
        }
        const auto reply = admission.serve(g27, fabric, *options);
        switch (reply.outcome) {
          case service::ServiceOutcome::kServed: served.fetch_add(1); break;
          case service::ServiceOutcome::kRejectedQueueFull:
            rejected.fetch_add(1);
            break;
          case service::ServiceOutcome::kShedDeadline: shed.fetch_add(1); break;
          case service::ServiceOutcome::kFailed: failed.fetch_add(1); break;
        }
        if (reply.outcome == service::ServiceOutcome::kServed) {
          std::lock_guard<std::mutex> lock(stats_mutex);
          if (reply.hit) mixed_hit.add(reply.total_seconds);
          else if (reply.coalesced) mixed_coalesced.add(reply.total_seconds);
          else mixed_miss.add(reply.total_seconds);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double stream_s = now_seconds() - stream_t0;
  const std::uint64_t mixed_runs = pipeline_invocations() - mixed_runs_before;
  const int total_requests = workers * reps_per_worker;
  const double throughput = static_cast<double>(served.load()) / stream_s;

  std::cout << "\n--- mixed traffic: " << workers << " workers x "
            << reps_per_worker << " requests ---\n";
  Table table({"class", "count", "mean", "p50", "p99", "max"});
  const struct { const char* name; const LatStats* st; } rows[] = {
      {"hit", &mixed_hit}, {"miss", &mixed_miss},
      {"coalesced", &mixed_coalesced}};
  for (const auto& row : rows) {
    table.row()
        .cell(row.name)
        .cell(static_cast<long long>(row.st->seconds.size()))
        .cell(format_seconds(row.st->mean()))
        .cell(format_seconds(row.st->percentile(0.5)))
        .cell(format_seconds(row.st->percentile(0.99)))
        .cell(format_seconds(row.st->max()));
  }
  table.print(std::cout);
  std::cout << "served " << served.load() << "/" << total_requests
            << ", rejected " << rejected.load() << ", shed " << shed.load()
            << ", failed " << failed.load() << ", pipeline runs " << mixed_runs
            << ", wall " << format_seconds(stream_s) << ", "
            << static_cast<long long>(throughput) << " served/s\n";

  // ---- JSON record --------------------------------------------------------
  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_service\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full")
       << "\",\n  \"topology\": \"genkautz27_d4\",\n  \"cold_synth_s\": "
       << cold_synth_s << ",\n  ";
    lat_json(js, "hit_path", hit_path);
    js << ",\n  \"coalesce\": {\"threads\": " << kCoalesce
       << ", \"pipeline_runs\": " << coalesce_runs
       << ", \"coalesced_waiters\": " << coalesced_waiters
       << ", \"served\": " << coalesce_served << "},\n  \"mixed\": {"
       << "\"workers\": " << workers << ", \"requests\": " << total_requests
       << ", \"served\": " << served.load()
       << ", \"rejected_queue_full\": " << rejected.load()
       << ", \"shed_deadline\": " << shed.load()
       << ", \"failed\": " << failed.load()
       << ", \"pipeline_runs\": " << mixed_runs
       << ", \"wall_s\": " << stream_s
       << ", \"served_per_s\": " << throughput << ",\n    ";
    lat_json(js, "hit", mixed_hit);
    js << ",\n    ";
    lat_json(js, "miss", mixed_miss);
    js << ",\n    ";
    lat_json(js, "coalesced", mixed_coalesced);
    js << "\n  },\n  \"metrics\": " << metrics_snapshot_json() << "\n}\n";
    append_bench_record(json_path, js.str());
  }

  // ---- service gates ------------------------------------------------------
  bool gate_failed = false;
  if (!hit_path_clean || hit_path.seconds.empty() ||
      hit_path.percentile(0.5) >= 1e-3) {
    std::cerr << "FAIL: zero-copy hit path p50 "
              << (hit_path.seconds.empty()
                      ? std::string("(no hits)")
                      : std::to_string(hit_path.percentile(0.5) * 1e3) + " ms")
              << " — expected every rep served as a hit with p50 < 1 ms\n";
    gate_failed = true;
  }
  if (coalesce_runs != 1 || coalesce_served != kCoalesce) {
    std::cerr << "FAIL: " << kCoalesce << " identical concurrent misses ran "
              << coalesce_runs << " pipeline run(s) and served "
              << coalesce_served << " — expected exactly 1 run, all served\n";
    gate_failed = true;
  }
  if (served.load() != total_requests) {
    std::cerr << "FAIL: " << (total_requests - served.load()) << "/"
              << total_requests << " schedulable requests dropped (rejected "
              << rejected.load() << ", shed " << shed.load() << ", failed "
              << failed.load() << ") — no deadline was set and the queue "
              << "bound exceeds the worker count, so all must be served\n";
    gate_failed = true;
  }
  if (gate_failed) return 1;
  std::cout << "\nAll service gates passed.\n";
  return 0;
}
