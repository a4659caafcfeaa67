// Schedule intermediate representation — §2.2 and §4.
//
// An all-to-all comm schedule A is a set of tuples (C, (u,w), t): chunk C of
// shard B_{src,dst} moves from u to w at comm step t (link-based), or a set
// of weighted routes per commodity (path-based). Chunks are sub-intervals of
// the unit shard, so a schedule is valid for any shard byte size m.
#pragma once

#include <functional>
#include <vector>

#include "common/rational.hpp"
#include "graph/digraph.hpp"
#include "graph/paths.hpp"

namespace a2a {

/// A contiguous fraction [lo, hi) of shard B_{src,dst}.
struct Chunk {
  NodeId src = -1;
  NodeId dst = -1;
  Rational lo{0};
  Rational hi{0};

  [[nodiscard]] Rational size() const { return hi - lo; }
  friend bool operator==(const Chunk& a, const Chunk& b) {
    return a.src == b.src && a.dst == b.dst && a.lo == b.lo && a.hi == b.hi;
  }
};

/// One link-based transfer (C, (from,to), step).
struct Transfer {
  Chunk chunk;
  NodeId from = -1;
  NodeId to = -1;
  int step = 0;  ///< 1-based comm step.
};

/// Link-based schedule for fabrics without NIC forwarding (MSCCL/oneCCL
/// lowering target). All (from,to) hops must be fabric edges.
struct LinkSchedule {
  int num_nodes = 0;
  int num_steps = 0;
  std::vector<Transfer> transfers;

  /// Bytes crossing each edge at each step for shard size `shard_bytes`
  /// (indexed [step-1][edge]).
  [[nodiscard]] std::vector<std::vector<double>> bytes_per_edge_step(
      const DiGraph& g, double shard_bytes) const;

  /// Calls fn once per distinct chunk, in (src, dst, lo, hi) order, with
  /// that chunk's transfers sorted by step.
  void for_each_chunk(
      const std::function<void(const std::vector<const Transfer*>&)>& fn) const;
};

/// One weighted route of a path-based schedule, already chunked: the route
/// carries `num_chunks` base chunks of the (src,dst) shard.
struct RouteEntry {
  NodeId src = -1;
  NodeId dst = -1;
  Path path;
  double weight = 0.0;  ///< fraction of the shard on this route.
  int num_chunks = 0;   ///< weight / chunk_unit.
  int layer = 0;        ///< virtual-channel layer (deadlock freedom, §5.5).
};

/// Path-based schedule for NIC-forwarding fabrics (OMPI+UCX lowering
/// target). chunk_unit is the §4 "highest common factor" base chunk as a
/// fraction of a shard.
struct PathSchedule {
  int num_nodes = 0;
  Rational chunk_unit{1};
  std::vector<RouteEntry> entries;

  /// Fraction of a shard crossing each edge (per unit demand).
  [[nodiscard]] std::vector<double> edge_load(const DiGraph& g) const;
  /// Maximum capacity-normalized link load == all-to-all time per unit shard.
  [[nodiscard]] double max_link_load(const DiGraph& g) const;
  /// Total number of chunk flows (QPs) the schedule creates.
  [[nodiscard]] long long total_chunks() const;
};

}  // namespace a2a
