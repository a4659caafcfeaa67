#include "mcf/fleischer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "collectives/demand.hpp"
#include "graph/algorithms.hpp"

namespace a2a {

namespace {

/// Phase-boundary deadline check. Fleischer's rescale makes the flow of any
/// completed-phase prefix feasible, so cutting the loop here degrades F
/// gracefully instead of invalidating the solution. Phases are long enough
/// (one Dijkstra/scan per source or commodity) that a clock read per phase
/// is noise.
bool phase_deadline_hit(const FleischerOptions& options,
                        std::chrono::steady_clock::time_point start) {
  if (options.time_limit_s <= 0.0) return false;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed >= options.time_limit_s;
}

double initial_length_delta(double epsilon, int num_edges) {
  // Theory value delta = (1+eps) * ((1+eps) m)^{-1/eps}; clamped away from
  // denormals for tiny epsilon.
  const double raw = (1.0 + epsilon) *
                     std::pow((1.0 + epsilon) * num_edges, -1.0 / epsilon);
  return std::max(raw, 1e-280);
}

/// The initial edge lengths delta / c_e and the dual sum_e c_e * l_e they
/// start at. An edge without capacity gets an infinite length, so no route
/// takes it, and adds nothing to the dual.
struct InitialLengths {
  std::vector<double> length;
  double dual = 0.0;
  bool zero_capacity = false;  ///< some edge has no capacity.
};

InitialLengths initial_lengths(const std::vector<double>& cap, double delta) {
  InitialLengths out;
  out.length.resize(cap.size());
  for (std::size_t e = 0; e < cap.size(); ++e) {
    if (cap[e] > 0.0) {
      out.length[e] = delta / cap[e];
      out.dual += cap[e] * out.length[e];
    } else {
      out.length[e] = std::numeric_limits<double>::infinity();
      out.zero_capacity = true;
    }
  }
  return out;
}

/// True when every edge of `path` has capacity.
bool has_capacity(const Path& path, const std::vector<double>& cap) {
  return std::all_of(path.begin(), path.end(), [&](EdgeId e) {
    return cap[static_cast<std::size_t>(e)] > 0.0;
  });
}

}  // namespace

GroupedFlowSolution fleischer_grouped(const DiGraph& g,
                                      const std::vector<NodeId>& terminals,
                                      const FleischerOptions& options,
                                      const DemandMatrix* demand) {
  A2A_REQUIRE(terminals.size() >= 2, "need at least two terminals");
  A2A_REQUIRE(options.epsilon > 0.0 && options.epsilon < 0.5,
              "epsilon must be in (0, 0.5)");
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == static_cast<int>(terminals.size()),
                "demand matrix size does not match terminal count");
    A2A_REQUIRE(demand->total() > 0.0, "all-zero demand matrix");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const int S = static_cast<int>(terminals.size());
  const double eps = options.epsilon;

  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) cap[e] = g.edge(static_cast<int>(e)).capacity;
  InitialLengths init = initial_lengths(cap, initial_length_delta(eps, g.num_edges()));
  std::vector<double> length = std::move(init.length);
  // The dual value sum_e cap_e * length_e only ever grows (lengths are
  // multiplied by factors >= 1), so it is maintained incrementally at every
  // length update instead of re-summing all m edges per phase check.
  double dual = init.dual;
  if (init.zero_capacity) {
    // A pair that only zero-capacity edges connect has no route at all.
    for (int si = 0; si < S; ++si) {
      const NodeId s = terminals[static_cast<std::size_t>(si)];
      const DijkstraTree tree = dijkstra_tree(g, s, length);
      for (int di = 0; di < S; ++di) {
        if (di == si || (demand != nullptr && demand->at(si, di) <= 0.0)) continue;
        const NodeId t = terminals[static_cast<std::size_t>(di)];
        A2A_REQUIRE(std::isfinite(tree.dist[static_cast<std::size_t>(t)]),
                    "terminal pair (", s, ", ", t,
                    ") can only be served across zero-capacity edges");
      }
    }
  }

  std::vector<std::vector<double>> flow(
      static_cast<std::size_t>(S), std::vector<double>(m, 0.0));

  // Hoisted out of the phase loop: per-sink remaining demand and the
  // per-step edge request accumulator (reset via its touched set).
  std::vector<double> sink_demand(static_cast<std::size_t>(S), 0.0);
  std::vector<double> request(m, 0.0);
  std::vector<EdgeId> requested;
  requested.reserve(m);

  long long phases = 0;
  bool timed_out = false;
  while (dual < 1.0 && phases < options.max_phases) {
    // >= 1 phase always runs: the rescale needs some flow (mu > 0).
    if (phases > 0 && phase_deadline_hit(options, start)) {
      timed_out = true;
      break;
    }
    ++phases;
    for (int si = 0; si < S; ++si) {
      const NodeId s = terminals[static_cast<std::size_t>(si)];
      // Remaining demand of w(si,di) (1 when unweighted) towards every
      // other terminal this phase. An all-zero row exits the routing loop
      // immediately below, so silent sources cost one pass, no Dijkstra.
      if (demand == nullptr) {
        std::fill(sink_demand.begin(), sink_demand.end(), 1.0);
      } else {
        for (int di = 0; di < S; ++di) {
          sink_demand[static_cast<std::size_t>(di)] = demand->at(si, di);
        }
      }
      sink_demand[static_cast<std::size_t>(si)] = 0.0;
      for (int guard = 0; guard < 64 * S + 1024; ++guard) {
        double remaining = 0.0;
        for (const double d : sink_demand) remaining += d;
        if (remaining <= 1e-12) break;
        // Shortest-path tree under the current lengths; route every sink's
        // remaining demand along it, capacity-limited by a common factor.
        const DijkstraTree tree = dijkstra_tree(g, s, length);
        requested.clear();
        for (int di = 0; di < S; ++di) {
          const double dem = sink_demand[static_cast<std::size_t>(di)];
          if (dem <= 0.0) continue;
          NodeId at = terminals[static_cast<std::size_t>(di)];
          while (at != s) {
            const EdgeId e = tree.parent_edge[static_cast<std::size_t>(at)];
            A2A_ASSERT(e >= 0, "terminal unreachable in Fleischer routing");
            if (request[static_cast<std::size_t>(e)] == 0.0) requested.push_back(e);
            request[static_cast<std::size_t>(e)] += dem;
            at = g.edge(e).from;
          }
        }
        double gamma = 1.0;
        for (const EdgeId e : requested) {
          gamma = std::min(gamma, cap[static_cast<std::size_t>(e)] /
                                      request[static_cast<std::size_t>(e)]);
        }
        auto& fs = flow[static_cast<std::size_t>(si)];
        for (const EdgeId e : requested) {
          const std::size_t es = static_cast<std::size_t>(e);
          const double routed = gamma * request[es];
          request[es] = 0.0;
          fs[es] += routed;
          const double grown = length[es] * (1.0 + eps * routed / cap[es]);
          dual += cap[es] * (grown - length[es]);
          length[es] = grown;
        }
        for (auto& d : sink_demand) d -= gamma * d;
      }
    }
  }

  // Congestion rescale: the accumulated flow delivered `phases` units per
  // commodity; dividing by the worst overload makes it feasible.
  std::vector<double> total(m, 0.0);
  for (const auto& fs : flow) {
    for (std::size_t e = 0; e < m; ++e) total[e] += fs[e];
  }
  double mu = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    if (cap[e] > 0.0) mu = std::max(mu, total[e] / cap[e]);
  }
  A2A_ASSERT(mu > 0.0, "Fleischer produced no flow");
  GroupedFlowSolution out;
  out.terminals = terminals;
  out.concurrent_flow = static_cast<double>(phases) / mu;
  out.timed_out = timed_out;
  out.per_source = std::move(flow);
  for (auto& fs : out.per_source) {
    for (auto& f : fs) f /= mu;
  }
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

PathFlowSolution fleischer_paths(const DiGraph& g, const PathSet& paths,
                                 const FleischerOptions& options) {
  A2A_REQUIRE(paths.commodities.size() == paths.candidates.size(),
              "path set shape mismatch");
  A2A_REQUIRE(options.epsilon > 0.0 && options.epsilon < 0.5,
              "epsilon must be in (0, 0.5)");
  const auto start = std::chrono::steady_clock::now();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t K = paths.commodities.size();
  const double eps = options.epsilon;

  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) cap[e] = g.edge(static_cast<int>(e)).capacity;
  InitialLengths init = initial_lengths(cap, initial_length_delta(eps, g.num_edges()));
  std::vector<double> length = std::move(init.length);
  // Incrementally maintained dual sum_e cap_e * length_e (monotone growing).
  double dual = init.dual;

  PathFlowSolution out;
  out.weights.resize(K);
  double total_demand = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    A2A_REQUIRE(!paths.candidates[k].empty(), "commodity ", k,
                " has no candidate paths");
    A2A_REQUIRE(paths.demand_of(k) >= 0.0, "negative commodity demand");
    total_demand += paths.demand_of(k);
    out.weights[k].assign(paths.candidates[k].size(), 0.0);
    if (!init.zero_capacity || paths.demand_of(k) <= 0.0) continue;
    const auto& candidates = paths.candidates[k];
    A2A_REQUIRE(std::any_of(candidates.begin(), candidates.end(),
                            [&](const Path& p) { return has_capacity(p, cap); }),
                "commodity ", k, " (", paths.commodities[k].first, ", ",
                paths.commodities[k].second,
                ") can only be served across zero-capacity edges");
  }
  A2A_REQUIRE(total_demand > 0.0, "path set carries no demand");

  long long phases = 0;
  bool timed_out = false;
  while (dual < 1.0 && phases < options.max_phases) {
    // >= 1 phase always runs: the rescale needs some flow (mu > 0).
    if (phases > 0 && phase_deadline_hit(options, start)) {
      timed_out = true;
      break;
    }
    ++phases;
    for (std::size_t k = 0; k < K; ++k) {
      double demand = paths.demand_of(k);
      for (int guard = 0; guard < 4096 && demand > 1e-12; ++guard) {
        // Cheapest candidate under current lengths.
        std::size_t best = 0;
        double best_len = std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
          double l = 0.0;
          for (const EdgeId e : paths.candidates[k][p]) {
            l += length[static_cast<std::size_t>(e)];
          }
          if (l < best_len) {
            best_len = l;
            best = p;
          }
        }
        const Path& path = paths.candidates[k][best];
        double chunk = demand;
        for (const EdgeId e : path) {
          chunk = std::min(chunk, cap[static_cast<std::size_t>(e)]);
        }
        out.weights[k][best] += chunk;
        for (const EdgeId e : path) {
          const std::size_t es = static_cast<std::size_t>(e);
          const double grown = length[es] * (1.0 + eps * chunk / cap[es]);
          dual += cap[es] * (grown - length[es]);
          length[es] = grown;
        }
        demand -= chunk;
      }
    }
  }

  std::vector<double> total(m, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t p = 0; p < out.weights[k].size(); ++p) {
      for (const EdgeId e : paths.candidates[k][p]) {
        total[static_cast<std::size_t>(e)] += out.weights[k][p];
      }
    }
  }
  double mu = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    if (cap[e] > 0.0) mu = std::max(mu, total[e] / cap[e]);
  }
  A2A_ASSERT(mu > 0.0, "Fleischer produced no flow");
  out.concurrent_flow = static_cast<double>(phases) / mu;
  for (auto& w : out.weights) {
    for (auto& v : w) v /= mu;
  }
  out.phases = phases;
  out.timed_out = timed_out;
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace a2a
