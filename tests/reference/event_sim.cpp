#include "reference/event_sim.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace a2a {

EventSimResult simulate_link_schedule_events(const DiGraph& g,
                                             const LinkSchedule& schedule,
                                             double shard_bytes,
                                             int num_terminals,
                                             const Fabric& fabric) {
  A2A_REQUIRE(shard_bytes > 0.0, "shard size must be positive");
  // Time at which each chunk becomes available at each node. Chunks start
  // available at their source at t=0.
  using ChunkKey = std::tuple<NodeId, NodeId, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t>;
  auto key_of = [](const Chunk& c) {
    return ChunkKey{c.src, c.dst, c.lo.num(), c.lo.den(), c.hi.num(), c.hi.den()};
  };
  std::map<std::pair<ChunkKey, NodeId>, double> available;

  // Process transfers step by step; each link serializes its step's chunks.
  std::vector<const Transfer*> order;
  order.reserve(schedule.transfers.size());
  for (const Transfer& t : schedule.transfers) order.push_back(&t);
  std::sort(order.begin(), order.end(), [](const Transfer* a, const Transfer* b) {
    return a->step < b->step;
  });

  std::vector<double> link_free(static_cast<std::size_t>(g.num_edges()), 0.0);
  double completion = 0.0;
  for (const Transfer* t : order) {
    const EdgeId e = g.find_edge(t->from, t->to);
    A2A_REQUIRE(e >= 0, "transfer on a non-edge");
    double ready = 0.0;
    if (t->from != t->chunk.src) {
      const auto it = available.find({key_of(t->chunk), t->from});
      A2A_REQUIRE(it != available.end(), "chunk forwarded before arrival");
      ready = it->second;
    }
    auto& free_at = link_free[static_cast<std::size_t>(e)];
    const double start = std::max(ready, free_at) + fabric.per_chunk_s;
    const double bytes = t->chunk.size().to_double() * shard_bytes;
    const double finish =
        start + bytes / (fabric.link_GBps * g.edge(e).capacity * 1e9);
    free_at = finish;
    available[{key_of(t->chunk), t->to}] = finish;
    completion = std::max(completion, finish);
  }
  EventSimResult out;
  out.seconds = completion;
  out.algo_throughput_GBps =
      (num_terminals - 1) * shard_bytes / completion / 1e9;
  return out;
}

}  // namespace a2a
