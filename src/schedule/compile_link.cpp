#include "schedule/compile_link.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "collectives/demand.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

constexpr double kTol = 1e-9;

/// One (edge, step, amount) element of a commodity's space-time flow.
struct Segment {
  EdgeId edge;
  int step;
  double amount;
  double remaining;
};

/// A space-time path: hops with their steps, plus the carried weight.
struct SpaceTimePath {
  std::vector<std::pair<EdgeId, int>> hops;
  double weight;
};

/// Decomposes one commodity's tsMCF flow into space-time paths by FIFO-
/// matching receives to sends at every intermediate node (feasible by the
/// cumulative constraint, eq. 17) and then peeling paths off the resulting
/// segment DAG.
std::vector<SpaceTimePath> decompose_commodity(
    const DiGraph& g, NodeId s, NodeId d,
    const std::vector<std::vector<double>>& flow_by_step) {
  std::vector<Segment> segments;
  for (std::size_t t = 0; t < flow_by_step.size(); ++t) {
    for (std::size_t e = 0; e < flow_by_step[t].size(); ++e) {
      const double amount = flow_by_step[t][e];
      if (amount > kTol) {
        segments.push_back(Segment{static_cast<EdgeId>(e),
                                   static_cast<int>(t) + 1, amount, amount});
      }
    }
  }
  // successor[i] = list of (segment index, amount) the segment feeds.
  std::vector<std::vector<std::pair<int, double>>> successor(segments.size());
  // FIFO matching per intermediate node.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == s || v == d) continue;
    std::vector<int> in, out;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (g.edge(segments[i].edge).to == v) in.push_back(static_cast<int>(i));
      if (g.edge(segments[i].edge).from == v) out.push_back(static_cast<int>(i));
    }
    if (out.empty()) continue;
    auto by_step = [&](int a, int b) { return segments[static_cast<std::size_t>(a)].step < segments[static_cast<std::size_t>(b)].step; };
    std::sort(in.begin(), in.end(), by_step);
    std::sort(out.begin(), out.end(), by_step);
    std::size_t ii = 0;
    std::vector<double> in_avail(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) in_avail[i] = segments[static_cast<std::size_t>(in[i])].amount;
    for (const int oi : out) {
      double need = segments[static_cast<std::size_t>(oi)].amount;
      while (need > kTol) {
        A2A_ASSERT(ii < in.size(), "tsMCF send without matching receive at ", v);
        A2A_ASSERT(segments[static_cast<std::size_t>(in[ii])].step <
                       segments[static_cast<std::size_t>(oi)].step,
                   "tsMCF causality violated at node ", v);
        const double take = std::min(need, in_avail[ii]);
        if (take > kTol) {
          successor[static_cast<std::size_t>(in[ii])].emplace_back(oi, take);
          need -= take;
          in_avail[ii] -= take;
        }
        if (in_avail[ii] <= kTol) ++ii;
      }
    }
  }
  // Peel paths: start at segments leaving s, follow successors greedily.
  std::vector<SpaceTimePath> paths;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (g.edge(segments[i].edge).from == s) roots.push_back(i);
  }
  std::vector<std::size_t> succ_cursor(segments.size(), 0);
  for (const std::size_t root : roots) {
    while (segments[root].remaining > kTol) {
      SpaceTimePath p;
      p.weight = segments[root].remaining;
      std::size_t at = root;
      std::vector<std::size_t> chain{root};
      std::vector<int> chain_link{-1};
      for (;;) {
        p.hops.emplace_back(segments[at].edge, segments[at].step);
        if (g.edge(segments[at].edge).to == d) break;
        // Next successor with remaining amount.
        auto& succs = successor[at];
        std::size_t& cur = succ_cursor[at];
        while (cur < succs.size() && succs[cur].second <= kTol) ++cur;
        A2A_ASSERT(cur < succs.size(), "space-time decomposition stuck");
        p.weight = std::min(p.weight, succs[cur].second);
        chain_link.push_back(static_cast<int>(cur));
        at = static_cast<std::size_t>(succs[cur].first);
        chain.push_back(at);
      }
      // Subtract the peeled weight along the chain.
      for (std::size_t i = 0; i < chain.size(); ++i) {
        segments[chain[i]].remaining -= p.weight;
        if (i > 0) {
          successor[chain[i - 1]][static_cast<std::size_t>(chain_link[i])].second -=
              p.weight;
        }
      }
      paths.push_back(std::move(p));
    }
  }
  return paths;
}

}  // namespace

LinkSchedule compile_tsmcf_schedule(const DiGraph& g, const TsMcfSolution& ts,
                                    const ChunkingOptions& options,
                                    const DemandMatrix* demand) {
  LinkSchedule sched;
  sched.num_nodes = g.num_nodes();
  sched.num_steps = ts.steps;
  A2A_TRACE_SPAN("stage.chunk", "decompose + snap " +
                                    std::to_string(ts.pairs.count()) +
                                    " commodities");
  for (int k = 0; k < ts.pairs.count(); ++k) {
    const auto [s, d] = ts.pairs.nodes(k);
    const double w = demand_weight(demand, ts.pairs, k);
    if (w <= 0.0) continue;  // zero-weight commodities move no bytes
    const auto st_paths =
        decompose_commodity(g, s, d, ts.flow[static_cast<std::size_t>(k)]);
    if (st_paths.empty()) continue;
    std::vector<double> weights(st_paths.size());
    for (std::size_t p = 0; p < st_paths.size(); ++p) weights[p] = st_paths[p].weight;
    const auto fractions = snap_to_unit_fractions(weights, options);
    // Scale the unit tiling to the commodity's shard multiple: chunks tile
    // [0, w_r). snap_demand(1) == 1, so unit demand is untouched.
    const Rational w_r = snap_demand(w, options);
    Rational offset(0);
    for (std::size_t p = 0; p < st_paths.size(); ++p) {
      if (fractions[p].is_zero()) continue;
      Chunk chunk;
      chunk.src = s;
      chunk.dst = d;
      chunk.lo = offset;
      chunk.hi = offset + fractions[p] * w_r;
      offset = chunk.hi;
      for (const auto& [e, step] : st_paths[p].hops) {
        sched.transfers.push_back(
            Transfer{chunk, g.edge(e).from, g.edge(e).to, step});
      }
    }
  }
  return sched;
}

std::vector<CommodityPaths> paths_from_link_flows(const DiGraph& g,
                                                  const LinkFlowSolution& flows,
                                                  const DemandMatrix* demand) {
  std::vector<CommodityPaths> out;
  out.reserve(static_cast<std::size_t>(flows.pairs.count()));
  for (int k = 0; k < flows.pairs.count(); ++k) {
    const auto [s, d] = flows.pairs.nodes(k);
    const double w = demand_weight(demand, flows.pairs, k);
    if (w <= 0.0) continue;  // zero-weight commodities have no routes
    CommodityPaths cp;
    cp.src = s;
    cp.dst = d;
    cp.demand = w;
    cp.paths = extract_widest_paths(g, s, d,
                                    flows.per_commodity[static_cast<std::size_t>(k)],
                                    w * flows.concurrent_flow);
    A2A_REQUIRE(!cp.paths.empty(), "no extractable path for commodity ", s,
                "->", d);
    out.push_back(std::move(cp));
  }
  return out;
}

LinkSchedule unroll_rate_schedule(const DiGraph& g,
                                  const std::vector<CommodityPaths>& commodities,
                                  const UnrollOptions& options) {
  A2A_REQUIRE(options.slots_per_link >= 1, "need >= 1 slot per link");
  LinkSchedule sched;
  sched.num_nodes = g.num_nodes();

  struct PendingChunk {
    Chunk chunk;
    const Path* path;
  };
  // Chunk every commodity, interleaving across commodities round-robin so
  // the list scheduler spreads contention evenly. A GLOBAL chunk unit keeps
  // all chunks equal-sized, so the per-step slot budget below is also a
  // per-step byte budget and the synchronized steps stay balanced.
  std::vector<std::vector<Rational>> fraction_sets;
  {
    A2A_TRACE_SPAN("stage.chunk",
                   "snap " + std::to_string(commodities.size()) +
                       " commodities to unit fractions");
    fraction_sets.reserve(commodities.size());
    for (const CommodityPaths& cp : commodities) {
      std::vector<double> weights(cp.paths.size());
      for (std::size_t p = 0; p < cp.paths.size(); ++p) weights[p] = cp.paths[p].weight;
      auto fractions = snap_to_unit_fractions(weights, options.chunking);
      // Scale by the commodity's shard multiple so chunks tile
      // [0, snap_demand(demand)); multiplying by snap_demand(1) == 1 leaves
      // unit-demand commodities untouched.
      const Rational w_r = snap_demand(cp.demand, options.chunking);
      for (auto& f : fractions) f = f * w_r;
      fraction_sets.push_back(std::move(fractions));
    }
  }
  const Rational unit = fractions_hcf(fraction_sets);
  std::vector<std::vector<PendingChunk>> per_commodity;
  std::size_t num_hops = 0;
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    const CommodityPaths& cp = commodities[c];
    const auto& fractions = fraction_sets[c];
    std::vector<PendingChunk> chunks;
    Rational offset(0);
    for (std::size_t p = 0; p < cp.paths.size(); ++p) {
      if (fractions[p].is_zero()) continue;
      const Rational count_r = fractions[p] / unit;  // global unit divides all
      A2A_ASSERT(count_r.den() == 1, "HCF did not divide a fraction");
      for (std::int64_t i = 0; i < count_r.num(); ++i) {
        Chunk c;
        c.src = cp.src;
        c.dst = cp.dst;
        c.lo = offset;
        c.hi = offset + unit;
        offset = c.hi;
        chunks.push_back(PendingChunk{c, &cp.paths[p].path});
      }
      num_hops += static_cast<std::size_t>(count_r.num()) * cp.paths[p].path.size();
    }
    per_commodity.push_back(std::move(chunks));
  }
  sched.transfers.reserve(num_hops);

  // Earliest-fit list scheduling of chunk hops with per-(edge, step)
  // occupancy limited to slots_per_link scaled by the edge's capacity, so a
  // capacity-4 host link (Fig. 2 augmentation) legitimately carries 4 chunks
  // per step in the same wall-clock step time.
  //
  // Steps only ever fill up, so each edge keeps a skip pointer per step:
  // a free step points at itself, a full one at a later step with every
  // step in between full. first_free() follows the pointers and compresses
  // the path it walked (union-find style), so a hop skips a run of full
  // steps in amortized near-constant time instead of probing each one.
  struct EdgeSlots {
    std::vector<int> used;  ///< chunks placed, indexed by step
    std::vector<int> next;  ///< skip pointer, indexed by step
  };
  std::vector<int> slot_budget(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    slot_budget[static_cast<std::size_t>(e)] = std::max(
        1, static_cast<int>(std::lround(g.edge(e).capacity * options.slots_per_link)));
  }
  std::vector<EdgeSlots> slots(static_cast<std::size_t>(g.num_edges()));
  // Earliest step >= `from` with a free slot on `es`; steps past the end of
  // the arrays are untouched and therefore free.
  auto first_free = [](EdgeSlots& es, int from) {
    const int size = static_cast<int>(es.next.size());
    int root = from;
    while (root < size && es.next[static_cast<std::size_t>(root)] != root) {
      root = es.next[static_cast<std::size_t>(root)];
    }
    for (int t = from; t < size && t != root;) {
      const int after = es.next[static_cast<std::size_t>(t)];
      es.next[static_cast<std::size_t>(t)] = root;
      t = after;
    }
    if (root >= size) {
      es.used.resize(static_cast<std::size_t>(root) + 1, 0);
      es.next.resize(static_cast<std::size_t>(root) + 1);
      for (int t = size; t <= root; ++t) es.next[static_cast<std::size_t>(t)] = t;
    }
    return root;
  };
  int max_step = 0;
  bool progressed = true;
  for (std::size_t round = 0; progressed; ++round) {
    progressed = false;
    for (auto& chunks : per_commodity) {
      if (round >= chunks.size()) continue;
      progressed = true;
      const PendingChunk& pc = chunks[round];
      int prev = 0;
      for (const EdgeId e : *pc.path) {
        EdgeSlots& es = slots[static_cast<std::size_t>(e)];
        const int t = first_free(es, prev + 1);
        if (++es.used[static_cast<std::size_t>(t)] ==
            slot_budget[static_cast<std::size_t>(e)]) {
          es.next[static_cast<std::size_t>(t)] = t + 1;
        }
        sched.transfers.push_back(
            Transfer{pc.chunk, g.edge(e).from, g.edge(e).to, t});
        prev = t;
        max_step = std::max(max_step, t);
      }
    }
  }
  sched.num_steps = max_step;
  return sched;
}

}  // namespace a2a
