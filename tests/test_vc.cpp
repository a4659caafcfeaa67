// Deadlock-freedom (§5.5): LASH layer assignment keeps every layer's
// channel-dependency graph acyclic, and LASH-sequential needs <= 4 layers on
// the paper's route families. The per-arc cycle check places every route
// where the whole-graph Kahn check it replaced did.
#include "runtime/vc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baselines/dor.hpp"
#include "baselines/sssp.hpp"
#include "common/random.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"

namespace a2a {
namespace {

/// Re-checks an assignment: per layer, routes must have an acyclic CDG.
void check_assignment(const DiGraph& g, const std::vector<Path>& routes,
                      const VcAssignment& a) {
  ASSERT_EQ(a.layer.size(), routes.size());
  for (int layer = 0; layer < a.num_layers; ++layer) {
    std::vector<Path> in_layer;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (a.layer[i] == layer) in_layer.push_back(routes[i]);
    }
    EXPECT_TRUE(cdg_is_acyclic(g, in_layer)) << "layer " << layer;
  }
}

// ---- differential check against the whole-graph Kahn check ----------------

/// Reference CDG: the layering as it was before the per-arc DFS. A route's
/// arcs all go in, Kahn's algorithm then checks the whole graph, and a
/// cyclic result erases the route's arcs again.
class ReferenceCdg {
 public:
  explicit ReferenceCdg(int num_edges) : adj_(static_cast<std::size_t>(num_edges)) {}

  bool try_add(const Path& route) {
    std::vector<std::pair<int, int>> added;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      const int a = route[i];
      const int b = route[i + 1];
      auto& succ = adj_[static_cast<std::size_t>(a)];
      if (std::find(succ.begin(), succ.end(), b) == succ.end()) {
        succ.push_back(b);
        added.emplace_back(a, b);
      }
    }
    if (added.empty() || acyclic()) return true;
    for (const auto& [a, b] : added) {
      auto& succ = adj_[static_cast<std::size_t>(a)];
      succ.erase(std::find(succ.begin(), succ.end(), b));
    }
    return false;
  }

 private:
  [[nodiscard]] bool acyclic() const {
    const std::size_t n = adj_.size();
    std::vector<int> indeg(n, 0);
    for (const auto& succ : adj_) {
      for (const int b : succ) ++indeg[static_cast<std::size_t>(b)];
    }
    std::vector<int> stack;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) stack.push_back(static_cast<int>(i));
    }
    std::size_t seen = 0;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      ++seen;
      for (const int v : adj_[static_cast<std::size_t>(u)]) {
        if (--indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
      }
    }
    return seen == n;
  }

  std::vector<std::vector<int>> adj_;
};

bool reference_cdg_is_acyclic(const DiGraph& g, const std::vector<Path>& routes) {
  ReferenceCdg cdg(g.num_edges());
  for (const Path& r : routes) {
    if (!cdg.try_add(r)) return false;
  }
  return true;
}

VcAssignment reference_assign_layers(const DiGraph& g, const std::vector<Path>& routes,
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
  std::vector<ReferenceCdg> layers;
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

constexpr VcOrdering kAllOrderings[] = {VcOrdering::kInputOrder, VcOrdering::kShortestFirst,
                                        VcOrdering::kSourceGrouped};

/// Under every ordering: the same layer per route and layer count as the
/// reference, each layer acyclic, and the same cdg_is_acyclic verdict as the
/// reference on the whole set and on every eighth prefix of the input.
void expect_layers_match(const DiGraph& g, const std::vector<Path>& routes,
                         const std::string& name) {
  for (const VcOrdering ordering : kAllOrderings) {
    const VcAssignment want = reference_assign_layers(g, routes, ordering);
    const VcAssignment got = assign_layers(g, routes, ordering);
    EXPECT_EQ(got.num_layers, want.num_layers)
        << name << " ordering " << static_cast<int>(ordering);
    EXPECT_EQ(got.layer, want.layer) << name << " ordering " << static_cast<int>(ordering);
    check_assignment(g, routes, got);
  }
  const std::size_t step = std::max<std::size_t>(1, routes.size() / 8);
  for (std::size_t len = step; len <= routes.size(); len += step) {
    const std::vector<Path> prefix(routes.begin(),
                                   routes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(cdg_is_acyclic(g, prefix), reference_cdg_is_acyclic(g, prefix))
        << name << " prefix " << len;
  }
  EXPECT_EQ(cdg_is_acyclic(g, routes), reference_cdg_is_acyclic(g, routes)) << name;
}

TEST(Vc, DorOnTorusIsNotDeadlockFreeButMeshIs) {
  // Classic result [17]: DOR deadlocks on wraparound rings, never on meshes.
  const DiGraph mesh = make_mesh({3, 3});
  const auto mesh_plan = dor_routes(mesh, {3, 3}, false);
  EXPECT_TRUE(cdg_is_acyclic(mesh, mesh_plan.routes));
  expect_layers_match(mesh, mesh_plan.routes, "DOR mesh 3x3");

  const DiGraph torus = make_torus({4, 4});
  const auto torus_plan = dor_routes(torus, {4, 4}, true);
  EXPECT_FALSE(cdg_is_acyclic(torus, torus_plan.routes));
  expect_layers_match(torus, torus_plan.routes, "DOR torus 4x4");
}

TEST(Vc, AssignmentValidOnTorusDor) {
  const DiGraph torus = make_torus({3, 3, 3});
  const auto plan = dor_routes(torus, {3, 3, 3}, true);
  const auto a = assign_layers(torus, plan.routes, VcOrdering::kShortestFirst);
  check_assignment(torus, plan.routes, a);
  EXPECT_LE(a.num_layers, 4);  // the paper's §5.5 observation
  expect_layers_match(torus, plan.routes, "DOR torus 3x3x3");
}

TEST(Vc, LashSequentialAtMostFourLayersAcrossAlgorithmsAndTopologies) {
  std::vector<DiGraph> graphs;
  graphs.push_back(make_torus({3, 3, 3}));
  graphs.push_back(make_hypercube(3));
  graphs.push_back(make_complete_bipartite(4, 4));
  graphs.push_back(make_generalized_kautz(16, 3));
  for (const auto& g : graphs) {
    // SSSP routes.
    const auto sssp = sssp_routes(g, all_nodes(g));
    const auto a1 = assign_layers(g, sssp.routes, VcOrdering::kShortestFirst);
    check_assignment(g, sssp.routes, a1);
    EXPECT_LE(a1.num_layers, 4) << "SSSP on " << g.summary();
    expect_layers_match(g, sssp.routes, "SSSP on " + g.summary());
    // MCF-extP routes.
    const auto flows = solve_decomposed_mcf(g, all_nodes(g));
    const auto cpaths = paths_from_link_flows(g, flows);
    std::vector<Path> routes;
    for (const auto& cp : cpaths) {
      for (const auto& wp : cp.paths) routes.push_back(wp.path);
    }
    const auto a2 = assign_layers(g, routes, VcOrdering::kShortestFirst);
    check_assignment(g, routes, a2);
    EXPECT_LE(a2.num_layers, 4) << "MCF-extP on " << g.summary();
    expect_layers_match(g, routes, "MCF-extP on " + g.summary());
  }
}

TEST(Vc, OrderingsAreAllValid) {
  const DiGraph g = make_torus({3, 3});
  const auto plan = sssp_routes(g, all_nodes(g));
  for (const auto ordering : {VcOrdering::kInputOrder, VcOrdering::kShortestFirst,
                              VcOrdering::kSourceGrouped}) {
    const auto a = assign_layers(g, plan.routes, ordering);
    check_assignment(g, plan.routes, a);
    EXPECT_GE(a.num_layers, 1);
  }
  expect_layers_match(g, plan.routes, "SSSP torus 3x3");
}

TEST(Vc, SingleHopRoutesNeedOneLayer) {
  const DiGraph g = make_complete(4);
  std::vector<Path> routes;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) routes.push_back({g.find_edge(s, d)});
    }
  }
  const auto a = assign_layers(g, routes);
  EXPECT_EQ(a.num_layers, 1);
}

TEST(Vc, PathScheduleLayersWrittenInPlace) {
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  PathSchedule sched = compile_path_schedule(g, paths_from_link_flows(g, flows));
  const int layers = assign_layers(g, sched, VcOrdering::kShortestFirst);
  EXPECT_GE(layers, 1);
  EXPECT_LE(layers, 4);
  for (const RouteEntry& r : sched.entries) {
    EXPECT_GE(r.layer, 0);
    EXPECT_LT(r.layer, layers);
  }
}

std::vector<Path> routes_of(const PathSchedule& schedule) {
  std::vector<Path> routes;
  for (const RouteEntry& r : schedule.entries) routes.push_back(r.path);
  return routes;
}

TEST(VcReference, MatchesOnGenKautzPipelineSchedules) {
  for (const int n : {57, 72, 96}) {
    const DiGraph g = make_generalized_kautz(n, 4);
    for (const char* demand : {"uniform", "zipf:1.2"}) {
      ToolchainOptions options;
      options.workload.demand = DemandSpec::parse(demand);
      const GeneratedSchedule s = synthesize_schedule(g, hpc_cerio_fabric(), options);
      ASSERT_TRUE(s.path.has_value());
      const std::vector<Path> routes = routes_of(*s.path);
      const std::string name = "GenKautz(" + std::to_string(n) + ",4) " + demand;
      expect_layers_match(g, routes, name);
      const VcAssignment want =
          reference_assign_layers(g, routes, VcOrdering::kShortestFirst);
      EXPECT_EQ(s.vc_layers, want.num_layers) << name;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        ASSERT_EQ(s.path->entries[i].layer, want.layer[i]) << name << " route " << i;
      }
    }
  }
}

/// A random walk of 1..max_hops edges that never repeats an edge.
Path random_walk(const DiGraph& g, Rng& rng, int max_hops) {
  Path p;
  NodeId at = rng.next_int(0, g.num_nodes());
  const int hops = rng.next_int(1, max_hops + 1);
  for (int h = 0; h < hops; ++h) {
    const auto& outs = g.out_edges(at);
    const EdgeId e = outs[rng.next_below(outs.size())];
    if (std::find(p.begin(), p.end(), e) != p.end()) break;
    p.push_back(e);
    at = g.edge(e).to;
  }
  return p;
}

TEST(VcReference, MatchesOnSeededRandomRoutes) {
  const DiGraph g = make_torus({4, 4});
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<Path> routes;
    const int count = rng.next_int(1, 120);
    for (int i = 0; i < count; ++i) routes.push_back(random_walk(g, rng, 9));
    expect_layers_match(g, routes, "random routes seed " + std::to_string(seed));
  }
}

TEST(VcReference, MatchesOnRoutesThatAreCyclicAlone) {
  // A repeated consecutive edge (a self-arc in the CDG) and a route that
  // comes back to an edge it used: each is a cycle on its own, so neither
  // layering can place it and both report the CDG cyclic.
  const DiGraph g = make_ring(4);
  const EdgeId e01 = g.find_edge(0, 1);
  const Path repeated = {e01, e01};
  const Path revisit = {e01, g.find_edge(1, 2), g.find_edge(2, 3), g.find_edge(3, 0), e01};
  for (const Path& bad : {repeated, revisit}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      std::vector<Path> routes;
      for (int i = 0; i < 12; ++i) routes.push_back(random_walk(g, rng, 3));
      routes.insert(routes.begin() + rng.next_int(0, 13), bad);
      EXPECT_FALSE(reference_cdg_is_acyclic(g, routes));
      EXPECT_FALSE(cdg_is_acyclic(g, routes));
      for (std::size_t len = 1; len <= routes.size(); ++len) {
        const std::vector<Path> prefix(routes.begin(),
                                       routes.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_EQ(cdg_is_acyclic(g, prefix), reference_cdg_is_acyclic(g, prefix));
      }
      for (const VcOrdering ordering : kAllOrderings) {
        EXPECT_THROW((void)reference_assign_layers(g, routes, ordering), InternalError);
        EXPECT_THROW((void)assign_layers(g, routes, ordering), InternalError);
      }
    }
    EXPECT_FALSE(cdg_is_acyclic(g, {bad}));
  }
}

}  // namespace
}  // namespace a2a
