#include "container/columnar.hpp"

#include <algorithm>
#include <bit>

#include "graph/paths.hpp"

namespace a2a {

namespace {

/// Calls fn(column, first transfer, n, offset in the slice) for each column
/// segment of words [lo, lo + count) of a stream over `t` transfers.
template <typename Fn>
void for_each_column_segment(std::size_t t, std::size_t lo, std::size_t count,
                             Fn&& fn) {
  // Compare against the words left, not lo + count, which a wild count
  // would wrap into a false pass.
  A2A_REQUIRE(lo <= kLinkColumns * t && count <= kLinkColumns * t - lo,
              "link word slice [", lo, ", +", count, ") overruns ", t,
              " transfers");
  const std::size_t end = lo + count;
  for (std::size_t pos = lo; pos < end;) {
    const std::size_t row = pos % t;
    const std::size_t n = std::min(t - row, end - pos);
    fn(pos / t, row, n, pos - lo);
    pos += n;
  }
}

}  // namespace

void link_words_gather(const LinkSchedule& schedule, std::size_t lo,
                       std::size_t count, std::int64_t* out) {
  using Row = const Transfer&;
  const auto segment = [&](std::size_t column, std::size_t row, std::size_t n,
                           std::size_t at) {
    const Transfer* tr = schedule.transfers.data() + row;
    const auto gather = [&](auto field) {
      for (std::size_t i = 0; i < n; ++i) out[at + i] = field(tr[i]);
    };
    switch (column) {
      case 0: gather([](Row x) { return x.chunk.src; }); break;
      case 1: gather([](Row x) { return x.chunk.dst; }); break;
      case 2: gather([](Row x) { return x.chunk.lo.num(); }); break;
      case 3: gather([](Row x) { return x.chunk.lo.den(); }); break;
      case 4: gather([](Row x) { return x.chunk.hi.num(); }); break;
      case 5: gather([](Row x) { return x.chunk.hi.den(); }); break;
      case 6: gather([](Row x) { return x.from; }); break;
      case 7: gather([](Row x) { return x.to; }); break;
      default: gather([](Row x) { return x.step; }); break;
    }
  };
  for_each_column_segment(schedule.transfers.size(), lo, count, segment);
}

void link_words_scatter(const std::int64_t* words, std::size_t lo,
                        std::size_t count, LinkSchedule& schedule) {
  using Row = Transfer&;
  using Word = std::int64_t;
  const auto segment = [&](std::size_t column, std::size_t row, std::size_t n,
                           std::size_t at) {
    Transfer* tr = schedule.transfers.data() + row;
    const auto scatter = [&](auto field) {
      for (std::size_t i = 0; i < n; ++i) field(tr[i], words[at + i]);
    };
    // A numerator waits in its rational as num/1 (not normalized) until its
    // denominator, a later column, completes it.
    switch (column) {
      case 0: scatter([](Row x, Word v) { x.chunk.src = NodeId(v); }); break;
      case 1: scatter([](Row x, Word v) { x.chunk.dst = NodeId(v); }); break;
      case 2: scatter([](Row x, Word v) { x.chunk.lo = Rational(v); }); break;
      case 3:
        scatter([](Row x, Word v) { x.chunk.lo = Rational(x.chunk.lo.num(), v); });
        break;
      case 4: scatter([](Row x, Word v) { x.chunk.hi = Rational(v); }); break;
      case 5:
        scatter([](Row x, Word v) { x.chunk.hi = Rational(x.chunk.hi.num(), v); });
        break;
      case 6: scatter([](Row x, Word v) { x.from = NodeId(v); }); break;
      case 7: scatter([](Row x, Word v) { x.to = NodeId(v); }); break;
      default: scatter([](Row x, Word v) { x.step = int(v); }); break;
    }
  };
  for_each_column_segment(schedule.transfers.size(), lo, count, segment);
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
  // Divide, don't multiply: `kPathColumns * record_count` wraps for a
  // hostile 64-bit record count, turning a mismatch into a false pass.
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
