// Request vocabulary of the schedule service — the canonical description of
// "which schedule do you want" shared by the schedserved HTTP transport and
// the schedgen CLI, so a query string and a flag list resolve to the same
// topology, fabric and options (and therefore the same fingerprint).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/api.hpp"
#include "graph/digraph.hpp"
#include "runtime/fabric.hpp"

namespace a2a::service {

/// The topology-construction parameters schedgen has always taken as flags.
/// Which fields matter depends on the family (dims for torus3d, nodes+degree
/// for genkautz, dim for hypercube, ...); the rest are ignored, exactly as
/// the CLI ignores unused flags.
struct TopologySpec {
  std::string topology = "torus3d";
  std::string dims = "3x3x3";
  int nodes = 64;
  int degree = 4;
  int dim = 3;
  std::uint64_t seed = 1;
};

/// Builds the topology a spec describes. Throws InvalidArgument for unknown
/// families or malformed parameters (torus3d dims are positive integers
/// joined by 'x', e.g. "3x3x2").
[[nodiscard]] DiGraph build_topology(const TopologySpec& spec);

/// Resolves a fabric name (cerio | gpu | oneccl) to its Table 1 model.
[[nodiscard]] Fabric build_fabric(const std::string& name);

/// One schedule request as the service admits it: what to build, which
/// pipeline knobs, and how long the caller is willing to wait.
struct ServiceRequest {
  TopologySpec spec;
  std::string fabric = "cerio";
  ToolchainOptions options;
  /// Wall-clock budget for a miss (queue wait + synthesis). <= 0: no
  /// deadline — the request waits for synthesis however long it takes.
  double deadline_ms = 0.0;
  /// Ask for a Chrome trace of this request (served best-effort: at most
  /// one trace session can be open per process, so concurrent askers race
  /// and losers are served untraced).
  bool trace = false;
};

/// Sets one schedule key (every recognized key below but deadline_ms and
/// trace) from its text value: the one setter behind the query and
/// schedgen's `--<key> <value>` flags, so both resolve to the same request.
/// Returns false for any other key; throws InvalidArgument for a malformed
/// value (numbers parse through parse_number, common/parse.hpp).
bool set_schedule_key(ServiceRequest& request, std::string_view key,
                      const std::string& value);

/// Parses an HTTP query string ("topology=genkautz&nodes=27&degree=4&
/// fabric=cerio&deadline_ms=250") into a ServiceRequest. Accepts
/// percent-escapes and '+' for space. Unknown keys and unparseable values
/// throw InvalidArgument — the transport maps that to 400, distinguishing
/// caller mistakes from pipeline failures.
///
/// Recognized keys: the schedule keys topology, dims, nodes, degree, dim,
/// seed, fabric, the workload keys collective (a2a | rs | ag | allreduce)
/// and demand (uniform | zipf:<s> | perm[:<seed>] | block:<k>), and the
/// fingerprint-relevant pipeline knobs path_diversity_threshold /
/// exact_tsmcf_limit / vc_max_layers_warn (exposed so tests and benches can
/// mint distinct fingerprints for an otherwise identical topology); plus
/// deadline_ms (finite, >= 0) and trace.
[[nodiscard]] ServiceRequest parse_service_request(std::string_view query);

/// The request's canonical query string (sorted keys, only the recognized
/// set, values percent-encoded) — parse_service_request(canonical_query(r))
/// reproduces r, and two requests that differ in any key give different
/// strings. Used by benches to drive the HTTP transport from programmatic
/// requests, and by the transport's request memo as its key.
[[nodiscard]] std::string canonical_query(const ServiceRequest& request);

}  // namespace a2a::service
