#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "graph/topologies.hpp"

namespace a2a {
namespace {

TEST(GraphAlgorithms, BfsDistancesOnRing) {
  const DiGraph g = make_ring(6);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 2, 1}));
  const auto dist_to = bfs_distances_to(g, 0);
  EXPECT_EQ(dist_to, (std::vector<int>{0, 1, 2, 3, 2, 1}));
}

TEST(GraphAlgorithms, BfsDirectional) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto dist = bfs_distances(g, 2);
  EXPECT_EQ(dist[0], kUnreachable);
  EXPECT_FALSE(is_strongly_connected(g));
}

TEST(GraphAlgorithms, WidestPathPicksBottleneck) {
  // Two routes 0->3: via 1 (widths 5, 1) and via 2 (widths 2, 2).
  DiGraph g(4);
  const EdgeId a1 = g.add_edge(0, 1);
  const EdgeId a2 = g.add_edge(1, 3);
  const EdgeId b1 = g.add_edge(0, 2);
  const EdgeId b2 = g.add_edge(2, 3);
  std::vector<double> width(4);
  width[static_cast<std::size_t>(a1)] = 5;
  width[static_cast<std::size_t>(a2)] = 1;
  width[static_cast<std::size_t>(b1)] = 2;
  width[static_cast<std::size_t>(b2)] = 2;
  const auto result = widest_path(g, 0, 3, width);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->bottleneck, 2.0);
  EXPECT_EQ(result->path, (Path{b1, b2}));
}

TEST(GraphAlgorithms, WidestPathRespectsMinWidth) {
  DiGraph g(2);
  g.add_edge(0, 1);
  EXPECT_FALSE(widest_path(g, 0, 1, {0.5}, 0.5).has_value());
  EXPECT_TRUE(widest_path(g, 0, 1, {0.5}, 0.4).has_value());
}

TEST(GraphAlgorithms, DijkstraShortest) {
  const DiGraph g = make_ring(8);
  std::vector<double> len(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto path = dijkstra_path(g, 0, 3, len);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  EXPECT_TRUE(path_is_valid(g, *path, 0, 3));
}

TEST(GraphAlgorithms, DijkstraRejectsNegativeLengths) {
  DiGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(dijkstra_path(g, 0, 1, {-1.0}), InvalidArgument);
}

TEST(GraphAlgorithms, EdgeDisjointPathsCountEqualsDegreeOnHypercube) {
  const DiGraph g = make_hypercube(3);
  for (NodeId t = 1; t < 8; ++t) {
    const auto paths = edge_disjoint_paths(g, 0, t);
    EXPECT_EQ(paths.size(), 3u) << "t=" << t;  // Q3 is 3-edge-connected
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(path_is_valid(g, paths[i], 0, t));
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        EXPECT_TRUE(paths_edge_disjoint(paths[i], paths[j]));
      }
    }
  }
}

TEST(GraphAlgorithms, EdgeDisjointPathsRespectsLimit) {
  const DiGraph g = make_hypercube(3);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 7, 2).size(), 2u);
}

TEST(GraphAlgorithms, EwspFractionsFormUnitFlow) {
  const DiGraph g = make_torus({3, 3});
  for (NodeId d = 1; d < 9; ++d) {
    const auto frac = ewsp_edge_fractions(g, 0, d);
    for (NodeId u = 0; u < 9; ++u) {
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += frac[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += frac[static_cast<std::size_t>(e)];
      if (u == 0) EXPECT_NEAR(out - in, 1.0, 1e-9);
      else if (u == d) EXPECT_NEAR(in - out, 1.0, 1e-9);
      else EXPECT_NEAR(in, out, 1e-9);
    }
  }
}

TEST(GraphAlgorithms, EnumerateShortestPathsOnTorus) {
  const DiGraph g = make_torus({3, 3});
  bool truncated = true;
  const auto paths = enumerate_shortest_paths(g, 0, 4, 100, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(paths.size(), 2u);  // (1,1) neighbor: x-then-y or y-then-x
  for (const auto& p : paths) EXPECT_EQ(p.size(), 2u);
}

TEST(GraphAlgorithms, EnumerateShortestPathsTruncates) {
  const DiGraph g = make_hypercube(4);
  bool truncated = false;
  // The antipodal pair in Q4 has 4! = 24 shortest paths.
  const auto paths = enumerate_shortest_paths(g, 0, 15, 10, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(paths.size(), 10u);
}

TEST(GraphAlgorithms, CountBoundedPathsMatchesFactorialOnHypercube) {
  const DiGraph g = make_hypercube(3);
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 3, 1'000'000), 6);  // 3! shortest
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 2, 1'000'000), 0);
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 9, 5), 5);  // saturates at cap
}

TEST(GraphAlgorithms, DiameterAndDistanceSumThrowOnDisconnected) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)diameter(g), InvalidArgument);
  EXPECT_THROW((void)total_pairwise_distance(g), InvalidArgument);
}

TEST(GraphAlgorithms, PathHelpers) {
  const DiGraph g = make_ring(5);
  std::vector<double> len(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto p = dijkstra_path(g, 0, 2, len).value();
  EXPECT_EQ(path_source(g, p), 0);
  EXPECT_EQ(path_target(g, p), 2);
  EXPECT_EQ(path_nodes(g, p).size(), 3u);
  EXPECT_EQ(path_to_string(g, p), "0>1>2");
  EXPECT_FALSE(path_is_valid(g, p, 0, 3));
  EXPECT_FALSE(path_is_valid(g, {}, 0, 2));
}

}  // namespace
}  // namespace a2a
