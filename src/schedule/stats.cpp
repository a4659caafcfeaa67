#include "schedule/stats.hpp"

#include <algorithm>

namespace a2a {

LinkScheduleStats analyze_link_schedule(const DiGraph& g,
                                        const LinkSchedule& schedule) {
  (void)g;
  LinkScheduleStats stats;
  stats.num_steps = schedule.num_steps;
  stats.num_transfers = static_cast<long long>(schedule.transfers.size());
  stats.step_traffic.assign(static_cast<std::size_t>(schedule.num_steps), 0.0);
  NodeId ranks = schedule.num_nodes;
  for (const Transfer& t : schedule.transfers) {
    stats.step_traffic[static_cast<std::size_t>(t.step - 1)] +=
        t.chunk.size().to_double();
    ranks = std::max(ranks, t.to + 1);
  }
  // Scratch: a forwarded chunk occupies its holder's scratch from its
  // arrival step until the step it is forwarded. Each residence adds to the
  // holder's difference array over the steps; prefix sums then give every
  // (rank, step) occupancy.
  const auto span = static_cast<std::size_t>(schedule.num_steps) + 1;
  std::vector<double> scratch(static_cast<std::size_t>(ranks) * span, 0.0);
  schedule.for_each_chunk([&](const std::vector<const Transfer*>& hops) {
    stats.max_hops = std::max(stats.max_hops, static_cast<int>(hops.size()));
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const double size = hops[i]->chunk.size().to_double();
      double* held = scratch.data() + static_cast<std::size_t>(hops[i]->to) * span;
      held[hops[i]->step] += size;
      held[hops[i + 1]->step] -= size;
    }
  });
  for (std::size_t r = 0; r < static_cast<std::size_t>(ranks); ++r) {
    double held = 0.0;
    for (std::size_t step = 0; step < span; ++step) {
      held += scratch[r * span + step];
      stats.peak_scratch_per_rank = std::max(stats.peak_scratch_per_rank, held);
    }
  }
  return stats;
}

PathScheduleStats analyze_path_schedule(const DiGraph& g,
                                        const PathSchedule& schedule) {
  PathScheduleStats stats;
  stats.num_routes = static_cast<long long>(schedule.entries.size());
  stats.num_chunks = schedule.total_chunks();
  long long total_hops = 0;
  for (const RouteEntry& r : schedule.entries) {
    total_hops += static_cast<long long>(r.path.size());
    stats.max_hops = std::max(stats.max_hops, static_cast<int>(r.path.size()));
    stats.vc_layers = std::max(stats.vc_layers, r.layer + 1);
  }
  stats.avg_hops = stats.num_routes > 0
                       ? static_cast<double>(total_hops) /
                             static_cast<double>(stats.num_routes)
                       : 0.0;
  stats.max_link_load = schedule.max_link_load(g);
  return stats;
}

}  // namespace a2a
