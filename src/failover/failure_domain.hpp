// Failure domains — the offline half of deadline-bounded re-scheduling.
//
// A FailureSignature names a set of dead links and nodes. The failure
// domain of a fabric is the signature set worth precomputing fallback
// schedules for: every single-link and single-node failure (the N-1 events
// operators actually see), plus the top-k most *critical* link pairs —
// ranked by how much of the fabric's spectral expansion the pair destroys,
// since an all-to-all schedule's achievable rate tracks the spectral gap
// (§2.3/§5.4) and the pairs that crater it are exactly the ones where the
// naive fallback is worst.
//
// Degraded topologies keep the healthy graph's node ids (failed nodes stay
// as isolated vertices) so signatures, schedules, and validators all speak
// one id space; only edge ids shift, and degraded_topology reports the
// old->new remap.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace a2a {

/// A set of failed links and/or nodes, in HEALTHY-graph ids. Canonical form
/// (sorted, deduplicated) is required wherever signatures are compared or
/// fingerprinted; normalize() establishes it.
struct FailureSignature {
  std::vector<EdgeId> edges;
  std::vector<NodeId> nodes;

  void normalize();
  [[nodiscard]] bool empty() const { return edges.empty() && nodes.empty(); }
  /// "healthy" for the empty signature, else e.g. "e3+e17+n2" (canonical
  /// order; stable across runs, safe in filenames and metric annotations).
  [[nodiscard]] std::string to_string() const;
  /// Inverse of to_string, also accepting ','-separated specs as typed on
  /// the schedgen --inject command line ("e12,e40,n3"). Throws
  /// InvalidArgument on a malformed token or an id out of range for `g`.
  [[nodiscard]] static FailureSignature parse(const std::string& spec,
                                              const DiGraph& g);
};

[[nodiscard]] bool operator==(const FailureSignature& a,
                              const FailureSignature& b);

struct FailureDomainOptions {
  bool single_links = true;   ///< every N-1 link failure.
  bool single_nodes = true;   ///< every N-1 node failure.
  /// Link *pairs* to keep, ranked by spectral criticality. 0 disables the
  /// N-2 tier (the full pair set is O(E^2) — enumerating it all is the
  /// point of ranking).
  int top_k_link_pairs = 8;
  /// Pair candidates are drawn from the `spectral_pool` single links whose
  /// removal hurts the spectral gap most, so scoring is O(pool^2) power
  /// iterations instead of O(E^2).
  int spectral_pool = 16;
  /// Power-iteration count for ranking (accuracy here only orders
  /// candidates; full precision is wasted).
  int spectral_iters = 96;
};

/// Every healthy-graph edge the signature kills: the listed edges plus all
/// arcs incident (either direction) to a failed node. Sorted, deduplicated.
[[nodiscard]] std::vector<EdgeId> failed_edge_ids(const DiGraph& g,
                                                  const FailureSignature& sig);

/// The surviving fabric: failed edges removed, failed nodes left in place
/// as isolated vertices (node ids are preserved — see header comment).
/// `old_to_new`, when non-null, receives the healthy->degraded edge id map
/// (-1 for failed edges); without_edges preserves kept-edge order, so the
/// map is a running count.
[[nodiscard]] DiGraph degraded_topology(const DiGraph& g,
                                        const FailureSignature& sig,
                                        std::vector<EdgeId>* old_to_new = nullptr);

/// `terminals` minus the signature's failed nodes.
[[nodiscard]] std::vector<NodeId> surviving_terminals(
    const std::vector<NodeId>& terminals, const FailureSignature& sig);

/// True when every ordered pair of `terminals` is connected in `g` — the
/// precondition for any all-to-all schedule to exist on the degraded fabric.
[[nodiscard]] bool terminals_mutually_reachable(const DiGraph& g,
                                                const std::vector<NodeId>& terminals);

/// The precompute worklist: single links, single nodes, spectral top-k
/// pairs per `options`. Signatures are canonical; no duplicates.
[[nodiscard]] std::vector<FailureSignature> enumerate_failure_domain(
    const DiGraph& g, const FailureDomainOptions& options = {});

/// Cache key for a fallback schedule: 32 hex chars over the healthy
/// request's fingerprint plus the canonical signature. The healthy
/// fingerprint already covers topology/fabric/options, so two fabrics never
/// collide and the same fabric's signatures fan out into distinct keys.
[[nodiscard]] std::string failover_fingerprint(const std::string& base_fingerprint,
                                               const FailureSignature& sig);

}  // namespace a2a
