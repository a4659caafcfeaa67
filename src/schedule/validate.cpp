#include "schedule/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "collectives/demand.hpp"

namespace a2a {

namespace {

std::string chunk_name(const Chunk& c) {
  std::ostringstream os;
  os << "chunk(" << c.src << "->" << c.dst << ", [" << c.lo << "," << c.hi << "))";
  return os.str();
}

}  // namespace

ValidationResult validate_link_schedule(const DiGraph& g,
                                        const LinkSchedule& schedule,
                                        const std::vector<NodeId>& terminals,
                                        const DemandMatrix* demand,
                                        double demand_tol) {
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == static_cast<int>(terminals.size()),
                "demand matrix size does not match terminal count");
  }
  ValidationResult result;
  for (const Transfer& t : schedule.transfers) {
    if (t.step < 1 || t.step > schedule.num_steps) {
      result.fail("transfer step out of range: " + std::to_string(t.step));
    }
    if (g.find_edge(t.from, t.to) < 0) {
      result.fail("transfer on non-edge (" + std::to_string(t.from) + "," +
                  std::to_string(t.to) + ")");
    }
  }
  // Per chunk: hops sorted by step must chain src -> ... -> dst with
  // strictly increasing steps.
  std::map<std::pair<NodeId, NodeId>, std::vector<std::pair<Rational, Rational>>>
      delivered;
  schedule.for_each_chunk([&](const std::vector<const Transfer*>& hops) {
    const Chunk& c = hops.front()->chunk;
    NodeId at = c.src;
    int prev_step = 0;
    bool chain_ok = true;
    for (const Transfer* t : hops) {
      if (t->from != at) {
        result.fail(chunk_name(c) + " forwarded from " + std::to_string(t->from) +
                    " before arriving there");
        chain_ok = false;
        break;
      }
      if (t->step <= prev_step) {
        result.fail(chunk_name(c) + " violates causality at step " +
                    std::to_string(t->step));
        chain_ok = false;
        break;
      }
      at = t->to;
      prev_step = t->step;
    }
    if (chain_ok && at != c.dst) {
      result.fail(chunk_name(c) + " ends at node " + std::to_string(at) +
                  ", not its destination");
    }
    if (chain_ok && at == c.dst) {
      delivered[{c.src, c.dst}].emplace_back(c.lo, c.hi);
    }
  });
  // Completeness: every (s,d) shard tiles [0, w) — w == 1 without a demand
  // matrix (checked exactly); w == demand(s,d) within demand_tol otherwise.
  const int S = static_cast<int>(terminals.size());
  for (int si = 0; si < S; ++si) {
    const NodeId s = terminals[static_cast<std::size_t>(si)];
    for (int di = 0; di < S; ++di) {
      const NodeId d = terminals[static_cast<std::size_t>(di)];
      if (s == d) continue;
      const double w = demand == nullptr ? 1.0 : demand->at(si, di);
      auto it = delivered.find({s, d});
      if (w <= 0.0) {
        if (it != delivered.end() && !it->second.empty()) {
          result.fail("zero-demand shard " + std::to_string(s) + "->" +
                      std::to_string(d) + " has chunks");
        }
        continue;
      }
      if (it == delivered.end()) {
        result.fail("shard " + std::to_string(s) + "->" + std::to_string(d) +
                    " never delivered");
        continue;
      }
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      Rational cursor(0);
      bool tiled = true;
      for (const auto& [lo, hi] : intervals) {
        if (!(lo == cursor)) {
          tiled = false;
          break;
        }
        cursor = hi;
      }
      const bool complete = demand == nullptr
                                ? cursor == Rational(1)
                                : std::abs(cursor.to_double() - w) <= demand_tol;
      if (!tiled || !complete) {
        result.fail("shard " + std::to_string(s) + "->" + std::to_string(d) +
                    " chunks do not tile [0," +
                    (demand == nullptr ? std::string("1") : std::to_string(w)) +
                    ")");
      }
    }
  }
  return result;
}

ValidationResult validate_path_schedule(const DiGraph& g,
                                        const PathSchedule& schedule,
                                        const std::vector<NodeId>& terminals,
                                        const DemandMatrix* demand,
                                        double demand_tol) {
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == static_cast<int>(terminals.size()),
                "demand matrix size does not match terminal count");
  }
  ValidationResult result;
  // Per-commodity sums in a dense terminal-pair array, reached through each
  // node's first position in `terminals` (a repeated terminal shares its
  // first position's sums). Routes between non-terminals are ignored.
  struct CommoditySum {
    double weight = 0.0;
    long long chunks = 0;
    bool routed = false;
  };
  const int S = static_cast<int>(terminals.size());
  std::vector<CommoditySum> sums(static_cast<std::size_t>(S) *
                                 static_cast<std::size_t>(S));
  std::vector<int> position(static_cast<std::size_t>(g.num_nodes()), -1);
  for (int i = S - 1; i >= 0; --i) {
    const NodeId t = terminals[static_cast<std::size_t>(i)];
    if (t >= 0 && t < g.num_nodes()) position[static_cast<std::size_t>(t)] = i;
  }
  const auto sum_of = [&](NodeId s, NodeId d) -> CommoditySum* {
    if (s < 0 || s >= g.num_nodes() || d < 0 || d >= g.num_nodes()) return nullptr;
    const int si = position[static_cast<std::size_t>(s)];
    const int di = position[static_cast<std::size_t>(d)];
    if (si < 0 || di < 0) return nullptr;
    return &sums[static_cast<std::size_t>(si) * static_cast<std::size_t>(S) +
                 static_cast<std::size_t>(di)];
  };
  for (const RouteEntry& r : schedule.entries) {
    if (!path_is_valid(g, r.path, r.src, r.dst)) {
      result.fail("invalid route for " + std::to_string(r.src) + "->" +
                  std::to_string(r.dst));
      continue;
    }
    if (r.weight <= 0.0 || r.num_chunks <= 0) {
      result.fail("non-positive route weight/chunks for " +
                  std::to_string(r.src) + "->" + std::to_string(r.dst));
    }
    if (CommoditySum* sum = sum_of(r.src, r.dst)) {
      sum->weight += r.weight;
      sum->chunks += r.num_chunks;
      sum->routed = true;
    }
  }
  const double unit = schedule.chunk_unit.to_double();
  for (int si = 0; si < S; ++si) {
    const NodeId s = terminals[static_cast<std::size_t>(si)];
    for (int di = 0; di < S; ++di) {
      const NodeId d = terminals[static_cast<std::size_t>(di)];
      if (s == d) continue;
      const double wd = demand == nullptr ? 1.0 : demand->at(si, di);
      const CommoditySum* sum = sum_of(s, d);
      const bool has_routes = sum != nullptr && sum->routed;
      if (wd <= 0.0) {
        if (has_routes) {
          result.fail("zero-demand commodity " + std::to_string(s) + "->" +
                      std::to_string(d) + " has routes");
        }
        continue;
      }
      if (!has_routes) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " has no routes");
        continue;
      }
      const double w = sum->weight;
      // Weight completeness: exact-unit tolerance without a demand matrix
      // (legacy contract), grid-snap tolerance with one.
      const double tol = demand == nullptr ? 1e-6 : demand_tol;
      if (std::abs(w - wd) > tol) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " weights sum to " + std::to_string(w) +
                    ", expected " + std::to_string(wd));
      }
      // Chunk-count consistency: chunks must account for the delivered
      // weight at the global unit, commodity by commodity — the unit-demand
      // assumption round(1/unit) no longer holds under weighted shards.
      const auto expected_chunks = static_cast<long long>(std::llround(w / unit));
      if (sum->chunks != expected_chunks) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " ships " + std::to_string(sum->chunks) +
                    " chunks, expected " + std::to_string(expected_chunks));
      }
    }
  }
  return result;
}

}  // namespace a2a
