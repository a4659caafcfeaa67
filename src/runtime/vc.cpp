#include "runtime/vc.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace a2a {

namespace {

/// Channel-dependency graph: vertices are fabric edges; each route adds an
/// arc between consecutive edges, each checked by one DFS (see vc.hpp).
class Cdg {
 public:
  explicit Cdg(int num_edges)
      : adj_(static_cast<std::size_t>(num_edges)),
        mark_(static_cast<std::size_t>(num_edges), 0) {}

  /// Tentatively adds a route's transitions; returns false (and rolls back)
  /// if the CDG would become cyclic.
  bool try_add(const Path& route) {
    added_.clear();
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      const int a = route[i];
      const int b = route[i + 1];
      auto& succ = adj_[static_cast<std::size_t>(a)];
      if (std::find(succ.begin(), succ.end(), b) != succ.end()) continue;
      if (reaches(b, a)) {
        for (auto it = added_.rbegin(); it != added_.rend(); ++it) {
          adj_[static_cast<std::size_t>(*it)].pop_back();
        }
        return false;
      }
      succ.push_back(b);
      added_.push_back(a);
    }
    return true;
  }

 private:
  /// True iff a path from -> ... -> to exists (from == to included).
  bool reaches(int from, int to) {
    ++epoch_;
    stack_.assign(1, from);
    mark_[static_cast<std::size_t>(from)] = epoch_;
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      if (u == to) return true;
      for (const int v : adj_[static_cast<std::size_t>(u)]) {
        if (mark_[static_cast<std::size_t>(v)] != epoch_) {
          mark_[static_cast<std::size_t>(v)] = epoch_;
          stack_.push_back(v);
        }
      }
    }
    return false;
  }

  std::vector<std::vector<int>> adj_;
  std::vector<std::uint64_t> mark_;  ///< == epoch_ once this DFS pushed the edge.
  std::uint64_t epoch_ = 0;
  std::vector<int> stack_;
  std::vector<int> added_;  ///< tails of the arcs try_add() has added so far.
};

}  // namespace

bool cdg_is_acyclic(const DiGraph& g, const std::vector<Path>& routes) {
  Cdg cdg(g.num_edges());
  for (const Path& r : routes) {
    if (!cdg.try_add(r)) return false;
  }
  return true;
}

VcAssignment assign_layers(const DiGraph& g, const std::vector<Path>& routes,
                           VcOrdering ordering) {
  std::vector<std::size_t> order(routes.size());
  std::iota(order.begin(), order.end(), 0);
  switch (ordering) {
    case VcOrdering::kInputOrder:
      break;
    case VcOrdering::kShortestFirst:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return routes[a].size() < routes[b].size();
      });
      break;
    case VcOrdering::kSourceGrouped:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (routes[a].empty() || routes[b].empty()) return routes[a].size() < routes[b].size();
        const NodeId sa = g.edge(routes[a].front()).from;
        const NodeId sb = g.edge(routes[b].front()).from;
        if (sa != sb) return sa < sb;
        return routes[a].size() < routes[b].size();
      });
      break;
  }

  VcAssignment out;
  out.layer.assign(routes.size(), 0);
  std::vector<Cdg> layers;
  for (const std::size_t r : order) {
    bool placed = false;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      if (layers[l].try_add(routes[r])) {
        out.layer[r] = static_cast<int>(l);
        placed = true;
        break;
      }
    }
    if (!placed) {
      layers.emplace_back(g.num_edges());
      const bool ok = layers.back().try_add(routes[r]);
      A2A_ASSERT(ok, "a single route cannot be cyclic");
      out.layer[r] = static_cast<int>(layers.size()) - 1;
    }
  }
  out.num_layers = static_cast<int>(layers.size());
  return out;
}

int assign_layers(const DiGraph& g, PathSchedule& schedule, VcOrdering ordering) {
  std::vector<Path> routes;
  routes.reserve(schedule.entries.size());
  for (const RouteEntry& r : schedule.entries) routes.push_back(r.path);
  const VcAssignment assignment = assign_layers(g, routes, ordering);
  for (std::size_t i = 0; i < schedule.entries.size(); ++i) {
    schedule.entries[i].layer = assignment.layer[i];
  }
  return assignment.num_layers;
}

}  // namespace a2a
