#include "reference/fingerprint_reference.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/binio.hpp"
#include "common/fnv1a.hpp"
#include "lp/simplex.hpp"

namespace a2a {

std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

using binio::put_u64;

void feed_u64(std::string& buf, std::uint64_t v) { put_u64(buf, v); }
void feed_i64(std::string& buf, std::int64_t v) {
  put_u64(buf, static_cast<std::uint64_t>(v));
}
void feed_double(std::string& buf, double v) {
  put_u64(buf, std::bit_cast<std::uint64_t>(v));
}
void feed_str(std::string& buf, const std::string& s) {
  feed_u64(buf, s.size());
  buf.append(s);
}

void feed_graph(std::string& buf, const DiGraph& g) {
  feed_u64(buf, static_cast<std::uint64_t>(g.num_nodes()));
  struct CanonEdge {
    NodeId from;
    NodeId to;
    std::uint64_t cap_bits;
    auto operator<=>(const CanonEdge&) const = default;
  };
  std::vector<CanonEdge> canon;
  canon.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    canon.push_back({e.from, e.to, std::bit_cast<std::uint64_t>(e.capacity)});
  }
  std::sort(canon.begin(), canon.end());
  for (const CanonEdge& e : canon) {
    feed_i64(buf, e.from);
    feed_i64(buf, e.to);
    feed_u64(buf, e.cap_bits);
  }
}

}  // namespace

std::string schedule_fingerprint_reference(const DiGraph& topology,
                                           const Fabric& fabric,
                                           const ToolchainOptions& options) {
  std::string buf;
  buf.reserve(64 + static_cast<std::size_t>(topology.num_edges()) * 24);
  feed_graph(buf, topology);

  feed_str(buf, fabric.name);
  feed_double(buf, fabric.link_GBps);
  feed_double(buf, fabric.injection_GBps);
  feed_u64(buf, fabric.nic_forwarding ? 1 : 0);
  feed_u64(buf, static_cast<std::uint64_t>(fabric.flow_control));
  feed_double(buf, fabric.step_sync_s);
  feed_double(buf, fabric.per_chunk_s);
  feed_double(buf, fabric.hop_latency_s);
  feed_double(buf, fabric.qp_knee);
  feed_double(buf, fabric.qp_penalty);

  feed_i64(buf, options.exact_tsmcf_limit);
  feed_i64(buf, options.path_diversity_threshold);
  // The retired master and child modes' defaults.
  feed_u64(buf, 0);
  feed_u64(buf, 1);
  feed_i64(buf, options.mcf.exact_master_limit);
  feed_double(buf, options.mcf.fptas_epsilon);
  feed_i64(buf, options.mcf.lp.max_iterations);
  // The retired refactor_interval, then the LP tolerance constants.
  feed_i64(buf, 4000);
  feed_double(buf, kLpFeasibilityTol);
  feed_double(buf, kLpOptimalityTol);
  feed_double(buf, kLpPivotTol);
  feed_i64(buf, kLpStallLimit);
  feed_double(buf, options.mcf.fptas.epsilon);
  feed_i64(buf, options.mcf.fptas.max_phases);
  feed_i64(buf, options.chunking.max_denominator);
  feed_double(buf, options.chunking.min_fraction);
  feed_i64(buf, options.vc_max_layers_warn);
  if (!options.workload.is_default()) {
    feed_str(buf, options.workload.to_string());
  }

  return hex128(fnv1a(buf, 0), fnv1a(buf, 0x9e3779b97f4a7c15ULL));
}

}  // namespace a2a
