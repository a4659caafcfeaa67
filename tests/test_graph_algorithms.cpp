#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "collectives/demand.hpp"
#include "common/random.hpp"
#include "failover/failure_domain.hpp"
#include "graph/topologies.hpp"
#include "mcf/path_mcf.hpp"

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

// ---- differential check against the allocate-per-call search ---------------

/// Reference: edge_disjoint_paths as it was before the search kept its
/// buffers and stopped at the degree cut. Fresh buffers per call, BFS until
/// one fails, and a per-node stack of used edges (ascending ids, popped from
/// the back) for the decomposition.
std::vector<Path> reference_edge_disjoint_paths(const DiGraph& g, NodeId s, NodeId t,
                                                int max_paths = -1) {
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  std::vector<bool> used(m, false);
  int flow = 0;
  const int limit = max_paths < 0 ? g.num_edges() : max_paths;
  while (flow < limit) {
    std::vector<std::pair<EdgeId, bool>> how(
        static_cast<std::size_t>(g.num_nodes()), {-1, false});
    std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
    std::deque<NodeId> queue{s};
    seen[static_cast<std::size_t>(s)] = true;
    bool reached = false;
    while (!queue.empty() && !reached) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const EdgeId e : g.out_edges(u)) {
        const NodeId v = g.edge(e).to;
        if (!used[static_cast<std::size_t>(e)] && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          how[static_cast<std::size_t>(v)] = {e, true};
          if (v == t) {
            reached = true;
            break;
          }
          queue.push_back(v);
        }
      }
      if (reached) break;
      for (const EdgeId e : g.in_edges(u)) {
        const NodeId v = g.edge(e).from;
        if (used[static_cast<std::size_t>(e)] && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          how[static_cast<std::size_t>(v)] = {e, false};
          queue.push_back(v);
        }
      }
    }
    if (!reached) break;
    for (NodeId at = t; at != s;) {
      const auto [e, forward] = how[static_cast<std::size_t>(at)];
      used[static_cast<std::size_t>(e)] = forward;
      at = forward ? g.edge(e).from : g.edge(e).to;
    }
    ++flow;
  }
  std::vector<std::vector<EdgeId>> used_out(static_cast<std::size_t>(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (used[static_cast<std::size_t>(e)]) {
      used_out[static_cast<std::size_t>(g.edge(e).from)].push_back(e);
    }
  }
  std::vector<Path> paths;
  for (int i = 0; i < flow; ++i) {
    Path p;
    NodeId at = s;
    while (at != t) {
      auto& outs = used_out[static_cast<std::size_t>(at)];
      A2A_ASSERT(!outs.empty(), "flow decomposition stuck at node ", at);
      const EdgeId e = outs.back();
      outs.pop_back();
      p.push_back(e);
      at = g.edge(e).to;
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

/// Every ordered pair of `g` through one reused search (max_paths -1, then
/// 1..3 on every seventh pair, interleaved so each call inherits the last
/// one's buffers), and through a fresh edge_disjoint_paths call on every
/// eleventh; all must equal the reference.
void expect_all_pairs_match(const DiGraph& g, const std::string& name) {
  DisjointPathSearch search(g);
  int pairs = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      ++pairs;
      EXPECT_EQ(search.run(s, t), reference_edge_disjoint_paths(g, s, t))
          << name << " pair " << s << "->" << t;
      if (pairs % 7 == 0) {
        for (int k = 1; k <= 3; ++k) {
          EXPECT_EQ(search.run(s, t, k), reference_edge_disjoint_paths(g, s, t, k))
              << name << " pair " << s << "->" << t << " max_paths " << k;
        }
      }
      if (pairs % 11 == 0) {
        EXPECT_EQ(edge_disjoint_paths(g, s, t), reference_edge_disjoint_paths(g, s, t))
            << name << " pair " << s << "->" << t << " (fresh search)";
      }
    }
  }
}

TEST(EdgeDisjointPaths, MatchesReferenceOnGenKautzAllPairs) {
  for (const int n : {20, 27, 41, 57, 73, 85, 96}) {
    expect_all_pairs_match(make_generalized_kautz(n, 4),
                           "GenKautz(" + std::to_string(n) + ",4)");
  }
}

TEST(EdgeDisjointPaths, MatchesReferenceOnToriAndHypercube) {
  expect_all_pairs_match(make_torus({3, 3, 2}), "torus 3x3x2");
  expect_all_pairs_match(make_torus({4, 4, 4}), "torus 4x4x4");
  expect_all_pairs_match(make_hypercube(6), "hypercube 6");
}

TEST(EdgeDisjointPaths, MatchesReferenceOnTwoLinkDegradedGenKautz) {
  const DiGraph healthy = make_generalized_kautz(27, 4);
  FailureSignature sig;
  sig.edges = {3, 17};
  sig.normalize();
  const DiGraph g = degraded_topology(healthy, sig);
  ASSERT_EQ(g.num_edges(), healthy.num_edges() - 2);
  expect_all_pairs_match(g, "GenKautz(27,4) - e3 - e17");
}

TEST(EdgeDisjointPaths, MatchesReferenceWithParallelEdges) {
  // Seeded multigraphs: a ring for connectivity plus random arcs, some of
  // them doubled or tripled, so degrees vary and parallel arcs share a cut.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int n = 12;
    DiGraph g(n);
    for (NodeId u = 0; u < n; ++u) g.add_edge(u, (u + 1) % n);
    for (int i = 0; i < 30; ++i) {
      const NodeId u = rng.next_int(0, n);
      const NodeId v = (u + rng.next_int(1, n)) % n;
      const int copies = rng.next_int(1, 4);
      for (int c = 0; c < copies; ++c) g.add_edge(u, v);
    }
    expect_all_pairs_match(g, "multigraph seed " + std::to_string(seed));
  }
  // Parallel arcs only: the cut is the multiplicity.
  DiGraph g(3);
  for (int c = 0; c < 3; ++c) g.add_edge(0, 1);
  for (int c = 0; c < 2; ++c) g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 1).size(), 3u);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 2).size(), 2u);
  expect_all_pairs_match(g, "parallel arcs");
}

TEST(EdgeDisjointPaths, MatchesReferenceBelowTheDegreeCut) {
  // Two complete digraphs K5 joined by one bidirectional bridge: across the
  // bridge the flow is 1 while every degree is 4 or 5, so the search must
  // end on a failing BFS, not on the degree cut.
  DiGraph g(10);
  for (const int base : {0, 5}) {
    for (NodeId u = base; u < base + 5; ++u) {
      for (NodeId v = base; v < base + 5; ++v) {
        if (u != v) g.add_edge(u, v);
      }
    }
  }
  g.add_bidi_edge(4, 5);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 9).size(), 1u);
  EXPECT_EQ(edge_disjoint_paths(g, 4, 5).size(), 1u);
  EXPECT_EQ(edge_disjoint_paths(g, 1, 2).size(), 4u);
  expect_all_pairs_match(g, "two-clique bridge");
}

TEST(EdgeDisjointPaths, ClearsTheCirculationTheDecompositionLeaves) {
  // The second augmenting path 0>3>2>1>4>5 takes the forward arc 2>1 while
  // the first path's 1>2 carries flow. Leaving each node by its highest-id
  // used edge, the decomposition yields 0>3>2>5 and 0>1>4>5 and leaves the
  // circulation 1>2>1 flagged, which the next call must not see.
  DiGraph g(6);
  const EdgeId s_a = g.add_edge(0, 1);
  g.add_edge(1, 2);
  const EdgeId s_c = g.add_edge(0, 3);
  const EdgeId c_b = g.add_edge(3, 2);
  g.add_edge(2, 1);
  const EdgeId b_t = g.add_edge(2, 5);
  const EdgeId a_d = g.add_edge(1, 4);
  const EdgeId d_t = g.add_edge(4, 5);
  const std::vector<Path> want = {{s_c, c_b, b_t}, {s_a, a_d, d_t}};
  EXPECT_EQ(reference_edge_disjoint_paths(g, 0, 5), want);
  DisjointPathSearch search(g);
  EXPECT_EQ(search.run(0, 5), want);
  EXPECT_EQ(search.run(0, 5), want);
  expect_all_pairs_match(g, "circulation");
}

TEST(EdgeDisjointPaths, BuildDisjointPathSetMatchesReferenceUnderBlockDemand) {
  const DiGraph g = make_generalized_kautz(27, 4);
  const std::vector<NodeId> terminals = all_nodes(g);
  const DemandMatrix demand = DemandSpec::parse("block:3").instantiate(27);
  const PathSet set = build_disjoint_path_set(g, terminals, &demand);
  std::size_t k = 0;
  for (std::size_t si = 0; si < terminals.size(); ++si) {
    for (std::size_t ti = 0; ti < terminals.size(); ++ti) {
      const double w = demand.at(static_cast<int>(si), static_cast<int>(ti));
      if (si == ti || w <= 0.0) continue;
      ASSERT_LT(k, set.commodities.size());
      EXPECT_EQ(set.commodities[k], std::make_pair(terminals[si], terminals[ti]));
      EXPECT_EQ(set.candidates[k],
                reference_edge_disjoint_paths(g, terminals[si], terminals[ti]));
      EXPECT_EQ(set.demands[k], w);
      ++k;
    }
  }
  EXPECT_EQ(k, set.commodities.size());
  EXPECT_EQ(k, 3u * 9u * 8u);  // three blocks of nine terminals
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
