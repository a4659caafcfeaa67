#include "container/columnar.hpp"

#include <bit>

#include "graph/paths.hpp"

namespace a2a {

std::vector<std::int64_t> link_schedule_to_words(const LinkSchedule& schedule) {
  const std::size_t t = schedule.transfers.size();
  std::vector<std::int64_t> words(kLinkColumns * t);
  for (std::size_t i = 0; i < t; ++i) {
    const Transfer& tr = schedule.transfers[i];
    words[0 * t + i] = tr.chunk.src;
    words[1 * t + i] = tr.chunk.dst;
    words[2 * t + i] = tr.chunk.lo.num();
    words[3 * t + i] = tr.chunk.lo.den();
    words[4 * t + i] = tr.chunk.hi.num();
    words[5 * t + i] = tr.chunk.hi.den();
    words[6 * t + i] = tr.from;
    words[7 * t + i] = tr.to;
    words[8 * t + i] = tr.step;
  }
  return words;
}

LinkSchedule link_schedule_from_words(const std::vector<std::int64_t>& words,
                                      int num_nodes, int num_steps,
                                      std::size_t record_count) {
  // Divide, don't multiply: `kLinkColumns * record_count` wraps for a
  // hostile 64-bit record count, turning a mismatch into a false pass (and
  // the resize below into a wild allocation).
  A2A_REQUIRE(record_count <= words.size() / kLinkColumns &&
                  words.size() == kLinkColumns * record_count,
              "link word stream has ", words.size(), " words for ",
              record_count, " records");
  LinkSchedule out;
  out.num_nodes = num_nodes;
  out.num_steps = num_steps;
  out.transfers.resize(record_count);
  const std::size_t t = record_count;
  for (std::size_t i = 0; i < t; ++i) {
    Transfer& tr = out.transfers[i];
    tr.chunk.src = static_cast<NodeId>(words[0 * t + i]);
    tr.chunk.dst = static_cast<NodeId>(words[1 * t + i]);
    tr.chunk.lo = Rational(words[2 * t + i], words[3 * t + i]);
    tr.chunk.hi = Rational(words[4 * t + i], words[5 * t + i]);
    tr.from = static_cast<NodeId>(words[6 * t + i]);
    tr.to = static_cast<NodeId>(words[7 * t + i]);
    tr.step = static_cast<int>(words[8 * t + i]);
  }
  return out;
}

std::vector<std::int64_t> path_schedule_to_words(const DiGraph& g,
                                                 const PathSchedule& schedule) {
  const std::size_t r = schedule.entries.size();
  std::vector<std::int64_t> words(kPathColumns * r);
  std::vector<std::int64_t> nodes;
  for (std::size_t i = 0; i < r; ++i) {
    const RouteEntry& e = schedule.entries[i];
    const std::vector<NodeId> seq =
        e.path.empty() ? std::vector<NodeId>{} : path_nodes(g, e.path);
    words[0 * r + i] = e.src;
    words[1 * r + i] = e.dst;
    words[2 * r + i] =
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(e.weight));
    words[3 * r + i] = e.num_chunks;
    words[4 * r + i] = e.layer;
    words[5 * r + i] = static_cast<std::int64_t>(seq.size());
    nodes.insert(nodes.end(), seq.begin(), seq.end());
  }
  words.insert(words.end(), nodes.begin(), nodes.end());
  return words;
}

PathSchedule path_schedule_from_words(const DiGraph& g,
                                      const std::vector<std::int64_t>& words,
                                      int num_nodes, const Rational& chunk_unit,
                                      std::size_t record_count) {
  // Divide, don't multiply: see link_schedule_from_words.
  A2A_REQUIRE(record_count <= words.size() / kPathColumns,
              "path word stream has ", words.size(), " words for ",
              record_count, " records");
  PathSchedule out;
  out.num_nodes = num_nodes;
  out.chunk_unit = chunk_unit;
  out.entries.resize(record_count);
  const std::size_t r = record_count;
  std::size_t node_pos = kPathColumns * r;
  for (std::size_t i = 0; i < r; ++i) {
    RouteEntry& e = out.entries[i];
    e.src = static_cast<NodeId>(words[0 * r + i]);
    e.dst = static_cast<NodeId>(words[1 * r + i]);
    e.weight = std::bit_cast<double>(
        static_cast<std::uint64_t>(words[2 * r + i]));
    e.num_chunks = static_cast<int>(words[3 * r + i]);
    e.layer = static_cast<int>(words[4 * r + i]);
    const std::int64_t len = words[5 * r + i];
    // Compare against the remaining words, not node_pos + len: a hostile
    // 64-bit len would wrap that sum into a false pass and walk the reads
    // off the end of the stream.
    A2A_REQUIRE(len >= 0 && static_cast<std::uint64_t>(len) <=
                                words.size() - node_pos,
                "route node list overruns word stream (len=", len, ")");
    A2A_REQUIRE(len != 1, "route with a single node is not a path");
    if (len > 1) e.path.reserve(static_cast<std::size_t>(len - 1));
    for (std::int64_t j = 0; j + 1 < len; ++j) {
      const std::int64_t uw = words[node_pos + static_cast<std::size_t>(j)];
      const std::int64_t vw = words[node_pos + static_cast<std::size_t>(j) + 1];
      // Validate on the raw words before narrowing: a 2^40 node id would
      // otherwise wrap into range and index the adjacency lists wild.
      A2A_REQUIRE(uw >= 0 && uw < g.num_nodes() && vw >= 0 &&
                      vw < g.num_nodes(),
                  "route node out of range (", uw, ",", vw, ") for ",
                  g.num_nodes(), " nodes");
      const EdgeId edge =
          g.find_edge(static_cast<NodeId>(uw), static_cast<NodeId>(vw));
      A2A_REQUIRE(edge >= 0, "route uses non-edge (", uw, ",", vw, ")");
      e.path.push_back(edge);
    }
    node_pos += static_cast<std::size_t>(len);
  }
  A2A_REQUIRE(node_pos == words.size(),
              "trailing words after last route node list");
  return out;
}

}  // namespace a2a
