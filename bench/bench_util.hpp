// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cctype>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_commit.hpp"
#include "common/table.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "obs/metrics.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"

namespace a2a::bench {

/// Coarse chunking for N=27-scale path schedules: bounds chunks/shard (and
/// QPs) at fabric-realistic counts, as the §4 Cerio lowering does.
inline ChunkingOptions coarse_chunking() {
  ChunkingOptions options;
  options.max_denominator = 12;
  options.min_fraction = 1e-3;
  return options;
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times a callable, returning seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_seconds();
  fn();
  return now_seconds() - t0;
}

/// Buffer-size sweep matching the paper's x-axes (per-node buffer bytes).
inline std::vector<double> buffer_sweep(int lo_pow, int hi_pow, int step = 3) {
  std::vector<double> out;
  for (int p = lo_pow; p <= hi_pow; p += step) {
    out.push_back(std::pow(2.0, p));
  }
  return out;
}

inline std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 3) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%s", bytes, units[u]);
  return buf;
}

/// The global metrics registry as an embeddable JSON value (a flat object,
/// no trailing newline) so BENCH_*.json records carry the run's telemetry.
/// One shared implementation with the schedserved /metrics endpoint and
/// `schedgen --metrics`.
inline std::string metrics_snapshot_json() { return obs::metrics_json(); }

/// What produced a record, as JSON members: the commit (bench_commit.hpp,
/// written at build time by cmake/bench_commit.cmake), the compiler, the
/// build type and the core count.
inline std::string provenance_json() {
  return "\"commit\": \"" A2A_BENCH_COMMIT "\", \"compiler\": \"" __VERSION__
         "\", \"build_type\": \"" A2A_BENCH_BUILD_TYPE "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
}

/// Appends one JSON object `record` to the trajectory array at `json_path`,
/// stamped with provenance_json() as its first members. BENCH_*.json files
/// are histories — an array of run records, one appended per invocation —
/// so this splices into an existing array rather than truncating it. A
/// legacy bare-object file is migrated as the array's first record;
/// anything else at the path is replaced by a fresh array.
inline void append_bench_record(const std::string& json_path,
                                std::string record) {
  while (!record.empty() && record.back() == '\n') record.pop_back();
  if (!record.empty() && record.front() == '{') {
    record.insert(1, "\n  " + provenance_json() + ",");
  }
  std::string existing;
  {
    std::ifstream in(json_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    existing = buf.str();
  }
  while (!existing.empty() &&
         std::isspace(static_cast<unsigned char>(existing.back()))) {
    existing.pop_back();
  }
  std::string out_text;
  if (!existing.empty() && existing.front() == '{' && existing.back() == '}') {
    out_text = "[\n" + existing + ",\n" + record + "\n]\n";
  } else if (!existing.empty() && existing.front() == '[' &&
             existing.back() == ']') {
    existing.pop_back();
    while (!existing.empty() &&
           std::isspace(static_cast<unsigned char>(existing.back()))) {
      existing.pop_back();
    }
    // "[]" (an emptied history) splices to a leading comma; treat any array
    // with no last record to attach to as a fresh file instead.
    if (existing.size() > 1 && existing.back() == '}') {
      out_text = existing + ",\n" + record + "\n]\n";
    } else {
      out_text = "[\n" + record + "\n]\n";
    }
  } else {
    out_text = "[\n" + record + "\n]\n";
  }
  std::ofstream(json_path) << out_text;
  std::cout << "appended to " << json_path << "\n";
}

/// Builds a PathSchedule from single routes (one per commodity).
inline PathSchedule single_route_schedule(const DiGraph& g,
                                          const std::vector<std::pair<NodeId, NodeId>>& commodities,
                                          const std::vector<Path>& routes) {
  std::vector<CommodityPaths> cps;
  cps.reserve(commodities.size());
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    CommodityPaths cp;
    cp.src = commodities[k].first;
    cp.dst = commodities[k].second;
    cp.paths.push_back(WeightedPath{routes[k], 1.0});
    cps.push_back(std::move(cp));
  }
  return compile_path_schedule(g, cps);
}

}  // namespace a2a::bench
