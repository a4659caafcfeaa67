#include "schedule/xml_io.hpp"

#include <sstream>

#include "common/parse.hpp"
#include "common/xml.hpp"

namespace a2a {

namespace {

std::string rational_str(const Rational& r) {
  std::ostringstream os;
  os << r;
  return os.str();
}

Rational parse_rational(std::string_view s) {
  const auto slash = s.find('/');
  const auto num = parse_number<std::int64_t>(s.substr(0, slash), "rational");
  if (slash == std::string_view::npos) return Rational(num);
  return Rational(num, parse_number<std::int64_t>(s.substr(slash + 1),
                                                  "rational denominator"));
}

Path parse_path(const DiGraph& g, const std::string& s) {
  std::vector<NodeId> nodes;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto next = s.find('>', pos);
    const std::string token =
        next == std::string::npos ? s.substr(pos) : s.substr(pos, next - pos);
    nodes.push_back(parse_number<NodeId>(token, "route node"));
    A2A_REQUIRE(nodes.back() >= 0 && nodes.back() < g.num_nodes(),
                "route node ", nodes.back(), " out of range");
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  A2A_REQUIRE(nodes.size() >= 2, "route path too short: ", s);
  Path path;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const EdgeId e = g.find_edge(nodes[i], nodes[i + 1]);
    A2A_REQUIRE(e >= 0, "route uses non-edge (", nodes[i], ",", nodes[i + 1], ")");
    path.push_back(e);
  }
  return path;
}

}  // namespace

std::string link_schedule_to_xml(const LinkSchedule& schedule) {
  XmlNode root("linkschedule");
  root.set_attr("nodes", static_cast<long long>(schedule.num_nodes));
  root.set_attr("steps", static_cast<long long>(schedule.num_steps));
  for (const Transfer& t : schedule.transfers) {
    XmlNode& n = root.add_child("transfer");
    n.set_attr("src", static_cast<long long>(t.chunk.src));
    n.set_attr("dst", static_cast<long long>(t.chunk.dst));
    n.set_attr("lo", rational_str(t.chunk.lo));
    n.set_attr("hi", rational_str(t.chunk.hi));
    n.set_attr("from", static_cast<long long>(t.from));
    n.set_attr("to", static_cast<long long>(t.to));
    n.set_attr("step", static_cast<long long>(t.step));
  }
  return xml_to_string(root);
}

LinkSchedule link_schedule_from_xml(const std::string& xml) {
  const auto root = xml_parse(xml);
  A2A_REQUIRE(root->name == "linkschedule", "not a linkschedule document");
  LinkSchedule out;
  out.num_nodes = static_cast<int>(root->attr_int("nodes"));
  out.num_steps = static_cast<int>(root->attr_int("steps"));
  for (const XmlNode* n : root->children_named("transfer")) {
    Transfer t;
    t.chunk.src = static_cast<NodeId>(n->attr_int("src"));
    t.chunk.dst = static_cast<NodeId>(n->attr_int("dst"));
    t.chunk.lo = parse_rational(n->attr("lo"));
    t.chunk.hi = parse_rational(n->attr("hi"));
    t.from = static_cast<NodeId>(n->attr_int("from"));
    t.to = static_cast<NodeId>(n->attr_int("to"));
    t.step = static_cast<int>(n->attr_int("step"));
    out.transfers.push_back(std::move(t));
  }
  return out;
}

std::string path_schedule_to_xml(const DiGraph& g, const PathSchedule& schedule) {
  XmlNode root("pathschedule");
  root.set_attr("nodes", static_cast<long long>(schedule.num_nodes));
  root.set_attr("chunkunit", rational_str(schedule.chunk_unit));
  for (const RouteEntry& r : schedule.entries) {
    XmlNode& n = root.add_child("route");
    n.set_attr("src", static_cast<long long>(r.src));
    n.set_attr("dst", static_cast<long long>(r.dst));
    n.set_attr("weight", rational_str(Rational::approximate(r.weight, 1'000'000)));
    n.set_attr("chunks", static_cast<long long>(r.num_chunks));
    n.set_attr("layer", static_cast<long long>(r.layer));
    n.set_attr("path", path_to_string(g, r.path));
  }
  return xml_to_string(root);
}

PathSchedule path_schedule_from_xml(const DiGraph& g, const std::string& xml) {
  const auto root = xml_parse(xml);
  A2A_REQUIRE(root->name == "pathschedule", "not a pathschedule document");
  PathSchedule out;
  out.num_nodes = static_cast<int>(root->attr_int("nodes"));
  out.chunk_unit = parse_rational(root->attr("chunkunit"));
  for (const XmlNode* n : root->children_named("route")) {
    RouteEntry r;
    r.src = static_cast<NodeId>(n->attr_int("src"));
    r.dst = static_cast<NodeId>(n->attr_int("dst"));
    r.weight = parse_rational(n->attr("weight")).to_double();
    r.num_chunks = static_cast<int>(n->attr_int("chunks"));
    r.layer = static_cast<int>(n->attr_int("layer"));
    r.path = parse_path(g, n->attr("path"));
    out.entries.push_back(std::move(r));
  }
  return out;
}

}  // namespace a2a
