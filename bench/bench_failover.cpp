// Fault-injection harness — time-to-valid-schedule under the failover ladder.
//
//   bench_failover [--smoke] [--json PATH] [--large]
//
// Drives a random stream of link/node failures and restorations over the
// Fig. 9 fabrics and measures, per ladder rung, how long reschedule() takes
// to produce a schedule that VALIDATES against the degraded topology:
//
//   * GenKautz(27, d=4): exact-baseline manager, single-link domain
//     precomputed, then the event stream (hits, exact re-solves, and —
//     under the deadline — FPTAS/degraded rungs).
//   * GenKautz(81, d=8) [--large / full mode]: FPTAS-baseline manager (past
//     exact_master_limit, where the exact LP is minutes), no precompute —
//     exercises the cold half of the ladder at production size.
//
// --smoke gates the robustness contract for CI: every served schedule must
// validate, the precomputed-hit path must serve under 1 ms (median), and
// the deadline may be overshot by at most the validation cost (plus
// scheduling noise). --json PATH appends a BENCH_failover.json record;
// without it nothing is written.
#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "failover/manager.hpp"
#include "graph/algorithms.hpp"
#include "schedule/validate.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

struct RungStats {
  std::vector<double> seconds;
  double flow_sum = 0.0;  ///< served F, summed over the events this rung served.

  void add(double s) { seconds.push_back(s); }
  [[nodiscard]] double mean() const {
    if (seconds.empty()) return 0.0;
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum / static_cast<double>(seconds.size());
  }
  [[nodiscard]] double mean_flow() const {
    return seconds.empty() ? 0.0 : flow_sum / static_cast<double>(seconds.size());
  }
  [[nodiscard]] double percentile(double p) const {
    if (seconds.empty()) return 0.0;
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  [[nodiscard]] double min() const {
    return seconds.empty() ? 0.0
                           : *std::min_element(seconds.begin(), seconds.end());
  }
  [[nodiscard]] double max() const {
    return seconds.empty() ? 0.0
                           : *std::max_element(seconds.begin(), seconds.end());
  }
};

struct StreamResult {
  RungStats per_rung[4];
  int served = 0;
  int invalid_served = 0;
  int deadline_violations = 0;
  int skipped_disconnected = 0;
};

/// Random failure/restoration stream against one manager. Events that would
/// leave the surviving terminals disconnected are skipped (no all-to-all
/// exists there — the unschedulable path is covered by tests).
StreamResult drive_event_stream(FailoverManager& mgr, const DiGraph& g,
                                int events, double deadline, Rng& rng) {
  StreamResult out;
  std::set<EdgeId> down_edges;
  std::set<NodeId> down_nodes;
  for (int event = 0; event < events; ++event) {
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

    std::vector<NodeId> survivors;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (down_nodes.count(n) == 0) survivors.push_back(n);
    }
    const DiGraph degraded = degraded_topology(g, sig);
    if (survivors.size() < 2 ||
        !terminals_mutually_reachable(degraded, survivors)) {
      ++out.skipped_disconnected;
      continue;
    }

    const FailoverResult r = mgr.reschedule(sig, deadline);
    ++out.served;
    RungStats& rung = out.per_rung[static_cast<int>(r.rung)];
    rung.add(r.elapsed_s);
    rung.flow_sum += r.schedule.concurrent_flow;
    // Re-validate independently: the bench trusts nothing the ladder says.
    const bool valid =
        r.schedule.path.has_value() &&
        validate_path_schedule(degraded, *r.schedule.path, r.schedule.terminals)
            .ok;
    if (!valid) ++out.invalid_served;
    if (r.elapsed_s > deadline + r.validate_s + 0.25) ++out.deadline_violations;
  }
  return out;
}

/// Record keys per rung; "dual_warm_exact" names rung 2, the exact re-solve,
/// as the earlier records of BENCH_failover.json do.
const char* kRungNames[4] = {"hit", "dual_warm_exact", "fptas", "degraded"};

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

void print_stream(const char* label, const StreamResult& s) {
  std::cout << "\n--- " << label << " ---\n";
  Table table({"rung", "count", "mean", "min", "p50", "p99", "max", "mean_F"});
  for (int rung = 0; rung < 4; ++rung) {
    const RungStats& st = s.per_rung[rung];
    table.row()
        .cell(kRungNames[rung])
        .cell(static_cast<long long>(st.seconds.size()))
        .cell(format_seconds(st.mean()))
        .cell(format_seconds(st.min()))
        .cell(format_seconds(st.percentile(0.5)))
        .cell(format_seconds(st.percentile(0.99)))
        .cell(format_seconds(st.max()))
        .cell(st.mean_flow(), 6);
  }
  table.print(std::cout);
  std::cout << "served " << s.served << ", invalid " << s.invalid_served
            << ", deadline violations " << s.deadline_violations
            << ", skipped (disconnected) " << s.skipped_disconnected << "\n";
}

void stream_json(std::ostringstream& js, const StreamResult& s) {
  js << "{\"served\": " << s.served << ", \"invalid_served\": "
     << s.invalid_served << ", \"deadline_violations\": "
     << s.deadline_violations << ", \"skipped_disconnected\": "
     << s.skipped_disconnected << ", \"rungs\": {";
  for (int rung = 0; rung < 4; ++rung) {
    const RungStats& st = s.per_rung[rung];
    js << "\"" << kRungNames[rung] << "\": {\"count\": " << st.seconds.size()
       << ", \"mean_s\": " << st.mean() << ", \"min_s\": " << st.min()
       << ", \"p50_s\": " << st.percentile(0.5)
       << ", \"p99_s\": " << st.percentile(0.99)
       << ", \"max_s\": " << st.max() << ", \"mean_F\": " << st.mean_flow()
       << "}" << (rung + 1 < 4 ? ", " : "");
  }
  js << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--large") == 0) large = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "=== Failover: time-to-valid-schedule under fault injection ===\n";

  // ---- leg 1: GenKautz(27, d=4), exact baseline + precomputed library ----
  const DiGraph g27 = make_generalized_kautz(27, 4);
  std::cout << "\n" << g27.summary() << "\n";
  FailoverOptions opts27;
  opts27.domain.single_nodes = !smoke;
  opts27.domain.top_k_link_pairs = smoke ? 0 : 8;
  opts27.domain.spectral_iters = 64;
  std::unique_ptr<FailoverManager> mgr27;
  const double init_s = timed([&] {
    mgr27 = std::make_unique<FailoverManager>(g27, hpc_cerio_fabric(), opts27);
  });
  std::cout << "healthy exact baseline: F = "
            << mgr27->healthy_schedule().concurrent_flow << " in "
            << format_seconds(init_s) << "\n";

  std::vector<FailureSignature> domain = mgr27->enumerate_domain();
  if (smoke) domain.resize(std::min<std::size_t>(domain.size(), 24));
  PrecomputeReport pre;
  const double precompute_s = timed([&] { pre = mgr27->precompute(domain); });
  std::cout << "precompute: " << pre.stored << "/" << pre.attempted
            << " stored (" << pre.skipped_disconnected << " disconnected, "
            << pre.failed << " failed) in " << format_seconds(precompute_s)
            << "\n";

  // Pure hit-path latency: a precomputed single-link signature, repeatedly.
  RungStats hit_path;
  {
    FailureSignature probe;
    for (const FailureSignature& sig : domain) {
      if (sig.nodes.empty() && sig.edges.size() == 1) {
        const FailoverResult r = mgr27->reschedule(sig, 1.0);
        if (r.rung == FailoverRung::kPrecomputedHit) {
          probe = sig;
          break;
        }
      }
    }
    const int reps = smoke ? 50 : 200;
    for (int i = 0; i < reps; ++i) {
      const FailoverResult r = mgr27->reschedule(probe, 1.0);
      if (r.rung == FailoverRung::kPrecomputedHit) hit_path.add(r.elapsed_s);
    }
  }
  std::cout << "precomputed-hit path: p50 "
            << format_seconds(hit_path.percentile(0.5)) << ", p99 "
            << format_seconds(hit_path.percentile(0.99)) << " over "
            << hit_path.seconds.size() << " reps\n";

  Rng rng(90210);
  const double deadline27 = 0.25;
  const StreamResult s27 = drive_event_stream(
      *mgr27, g27, smoke ? 16 : 48, deadline27, rng);
  print_stream("GenKautz(27,4) event stream, deadline 250 ms", s27);

  // ---- leg 2: GenKautz(81, d=8), FPTAS baseline, cold ladder -------------
  StreamResult s81;
  bool ran_large = false;
  if (large || !smoke) {
    const DiGraph g81 = make_generalized_kautz(81, 8);
    std::cout << "\n" << g81.summary() << "\n";
    FailoverOptions opts81;
    opts81.domain.single_nodes = false;
    opts81.domain.top_k_link_pairs = 0;
    std::unique_ptr<FailoverManager> mgr81;
    const double init81_s = timed([&] {
      mgr81 = std::make_unique<FailoverManager>(g81, hpc_cerio_fabric(), opts81);
    });
    std::cout << "healthy FPTAS baseline: F = "
              << mgr81->healthy_schedule().concurrent_flow << " in "
              << format_seconds(init81_s) << "\n";
    Rng rng81(424242);
    s81 = drive_event_stream(*mgr81, g81, smoke ? 4 : 12, 1.0, rng81);
    print_stream("GenKautz(81,8) event stream, deadline 1 s", s81);
    ran_large = true;
  }

  // ---- JSON record --------------------------------------------------------
  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_failover\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full") << "\",\n  \"genkautz27\": {\n"
       << "    \"init_seconds\": " << init_s
       << ",\n    \"precompute\": {\"attempted\": " << pre.attempted
       << ", \"stored\": " << pre.stored
       << ", \"skipped_disconnected\": " << pre.skipped_disconnected
       << ", \"failed\": " << pre.failed
       << ", \"seconds\": " << pre.seconds << "},\n"
       << "    \"hit_path_p50_s\": " << hit_path.percentile(0.5)
       << ",\n    \"hit_path_p99_s\": " << hit_path.percentile(0.99)
       << ",\n    \"deadline_s\": " << deadline27 << ",\n    \"stream\": ";
    stream_json(js, s27);
    js << "\n  }";
    if (ran_large) {
      js << ",\n  \"genkautz81\": {\"deadline_s\": 1.0, \"stream\": ";
      stream_json(js, s81);
      js << "}";
    }
    js << ",\n  \"metrics\": " << metrics_snapshot_json() << "\n}\n";
    append_bench_record(json_path, js.str());
    std::cout << "\nappended record to " << json_path << "\n";
  }

  // ---- robustness gates ---------------------------------------------------
  bool failed = false;
  const int invalid = s27.invalid_served + s81.invalid_served;
  if (invalid > 0) {
    std::cerr << "FAIL: " << invalid << " served schedule(s) did not validate "
              << "against the degraded topology\n";
    failed = true;
  }
  const int violations = s27.deadline_violations + s81.deadline_violations;
  if (violations > 0) {
    std::cerr << "FAIL: " << violations << " reschedule(s) overshot the "
              << "deadline by more than the validation cost\n";
    failed = true;
  }
  if (hit_path.seconds.empty() || hit_path.percentile(0.5) >= 1e-3) {
    std::cerr << "FAIL: precomputed-hit path p50 "
              << (hit_path.seconds.empty()
                      ? std::string("(no hits)")
                      : std::to_string(hit_path.percentile(0.5) * 1e3) + " ms")
              << " — expected < 1 ms\n";
    failed = true;
  }
  if (failed) return 1;
  std::cout << "\nAll failover gates passed.\n";
  return 0;
}
