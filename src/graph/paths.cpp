#include "graph/paths.hpp"

#include <set>
#include <sstream>

namespace a2a {

bool path_is_valid(const DiGraph& g, const Path& p, NodeId s, NodeId t) {
  if (p.empty()) return false;
  NodeId at = s;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const EdgeId e = p[i];
    if (e < 0 || e >= g.num_edges()) return false;
    const Edge& edge = g.edge(e);
    if (edge.from != at) return false;
    at = edge.to;
    // A repeated node is the source or the head of an earlier hop.
    if (at == s) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (g.edge(p[j]).to == at) return false;
    }
  }
  return at == t;
}

std::vector<NodeId> path_nodes(const DiGraph& g, const Path& p) {
  A2A_REQUIRE(!p.empty(), "empty path has no node sequence");
  std::vector<NodeId> nodes;
  nodes.reserve(p.size() + 1);
  nodes.push_back(g.edge(p.front()).from);
  for (const EdgeId e : p) nodes.push_back(g.edge(e).to);
  return nodes;
}

NodeId path_source(const DiGraph& g, const Path& p) {
  A2A_REQUIRE(!p.empty(), "empty path has no source");
  return g.edge(p.front()).from;
}

NodeId path_target(const DiGraph& g, const Path& p) {
  A2A_REQUIRE(!p.empty(), "empty path has no target");
  return g.edge(p.back()).to;
}

std::string path_to_string(const DiGraph& g, const Path& p) {
  std::ostringstream os;
  const auto nodes = path_nodes(g, p);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << '>';
    os << nodes[i];
  }
  return os.str();
}

bool paths_edge_disjoint(const Path& a, const Path& b) {
  std::set<EdgeId> in_a(a.begin(), a.end());
  for (const EdgeId e : b) {
    if (in_a.count(e) > 0) return false;
  }
  return true;
}

}  // namespace a2a
