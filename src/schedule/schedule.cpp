#include "schedule/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>

namespace a2a {

std::vector<std::vector<double>> LinkSchedule::bytes_per_edge_step(
    const DiGraph& g, double shard_bytes) const {
  std::vector<std::vector<double>> bytes(
      static_cast<std::size_t>(num_steps),
      std::vector<double>(static_cast<std::size_t>(g.num_edges()), 0.0));
  for (const Transfer& tr : transfers) {
    const EdgeId e = g.find_edge(tr.from, tr.to);
    A2A_REQUIRE(e >= 0, "transfer on a non-edge (", tr.from, ",", tr.to, ")");
    A2A_REQUIRE(tr.step >= 1 && tr.step <= num_steps, "transfer step out of range");
    bytes[static_cast<std::size_t>(tr.step - 1)][static_cast<std::size_t>(e)] +=
        tr.chunk.size().to_double() * shard_bytes;
  }
  return bytes;
}

void LinkSchedule::for_each_chunk(
    const std::function<void(const std::vector<const Transfer*>&)>& fn) const {
  // Both compilers emit a chunk's hops back to back, so the schedule splits
  // into one run of equal-chunk transfers per chunk; a stable sort of the
  // runs brings a chunk's runs together in schedule order. Any other
  // transfer order only means more runs, down to one per transfer.
  using ChunkKey = std::tuple<NodeId, NodeId, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t>;
  struct Run {
    ChunkKey key;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Chunk& c = transfers[i].chunk;
    if (!runs.empty() && c == transfers[runs.back().begin].chunk) {
      runs.back().end = i + 1;
    } else {
      runs.push_back(Run{{c.src, c.dst, c.lo.num(), c.lo.den(), c.hi.num(),
                          c.hi.den()},
                         i, i + 1});
    }
  }
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.key < b.key; });
  std::vector<const Transfer*> hops;
  for (std::size_t r = 0; r < runs.size();) {
    hops.clear();
    const ChunkKey& key = runs[r].key;
    for (; r < runs.size() && runs[r].key == key; ++r) {
      for (std::size_t i = runs[r].begin; i < runs[r].end; ++i) {
        hops.push_back(&transfers[i]);
      }
    }
    std::sort(hops.begin(), hops.end(),
              [](const Transfer* a, const Transfer* b) { return a->step < b->step; });
    fn(hops);
  }
}

std::vector<double> PathSchedule::edge_load(const DiGraph& g) const {
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const RouteEntry& r : entries) {
    for (const EdgeId e : r.path) load[static_cast<std::size_t>(e)] += r.weight;
  }
  return load;
}

double PathSchedule::max_link_load(const DiGraph& g) const {
  const auto load = edge_load(g);
  double worst = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    worst = std::max(worst, load[static_cast<std::size_t>(e)] / g.edge(e).capacity);
  }
  return worst;
}

long long PathSchedule::total_chunks() const {
  long long total = 0;
  for (const RouteEntry& r : entries) total += r.num_chunks;
  return total;
}

}  // namespace a2a
