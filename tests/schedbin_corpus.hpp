// Deterministic SchedBin seed-frame corpus, shared by the golden-stability
// tests and the fuzz harness.
//
// Every frame here is a pure function of fixed Rng seeds and the codecs —
// no LP/MCF pipeline involved — so the checked-in files under
// tests/corpus/schedbin/ must stay byte-identical to what this header
// generates on any compiler. That pins the wire format: a writer change
// that alters any emitted byte fails the golden test instead of silently
// orphaning every artifact in the fleet's caches.
#pragma once

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "container/schedbin.hpp"
#include "graph/topologies.hpp"
#include "schedule/schedule.hpp"

namespace a2a::corpus {

/// A random (not necessarily valid) link schedule exercising negative ids,
/// large rationals, and repeated values.
inline LinkSchedule random_link_schedule(Rng& rng, int transfers) {
  LinkSchedule s;
  s.num_nodes = rng.next_int(1, 1000);
  s.num_steps = rng.next_int(1, 100);
  for (int i = 0; i < transfers; ++i) {
    Transfer t;
    t.chunk.src = rng.next_int(0, s.num_nodes);
    t.chunk.dst = rng.next_int(0, s.num_nodes);
    const std::int64_t den = rng.next_int(1, 360);
    const std::int64_t lo = rng.next_int(0, static_cast<int>(den));
    t.chunk.lo = Rational(lo, den);
    t.chunk.hi = Rational(lo + rng.next_int(1, 24), den * rng.next_int(1, 4));
    t.from = rng.next_int(0, s.num_nodes);
    t.to = rng.next_int(0, s.num_nodes);
    t.step = rng.next_int(1, s.num_steps + 1);
    s.transfers.push_back(t);
  }
  return s;
}

/// Sorts `s`'s transfers into compile order (step, then source), so the step
/// and src columns hold runs.
inline void sort_in_compile_order(LinkSchedule& s) {
  std::stable_sort(s.transfers.begin(), s.transfers.end(),
                   [](const Transfer& a, const Transfer& b) {
                     return std::tie(a.step, a.chunk.src) <
                            std::tie(b.step, b.chunk.src);
                   });
}

/// A random path schedule on `g` whose routes are real random walks, so the
/// node-sequence -> edge-id resolution on decode is exercised. Weights are
/// drawn from a small set so the dict codec sees realistic repetition.
inline PathSchedule random_path_schedule(const DiGraph& g, Rng& rng,
                                         int routes) {
  PathSchedule s;
  s.num_nodes = g.num_nodes();
  s.chunk_unit = Rational(1, rng.next_int(1, 48));
  for (int i = 0; i < routes; ++i) {
    RouteEntry e;
    NodeId u = rng.next_int(0, g.num_nodes());
    e.src = u;
    const int hops = rng.next_int(1, 5);
    for (int h = 0; h < hops; ++h) {
      const auto& out = g.out_edges(u);
      if (out.empty()) break;
      const EdgeId edge =
          out[static_cast<std::size_t>(rng.next_int(0, static_cast<int>(out.size())))];
      e.path.push_back(edge);
      u = g.edge(edge).to;
    }
    if (e.path.empty()) continue;
    e.dst = u;
    e.weight = 1.0 / rng.next_int(1, 8);
    e.num_chunks = rng.next_int(1, 64);
    e.layer = rng.next_int(0, 4);
    s.entries.push_back(std::move(e));
  }
  return s;
}

struct CorpusFrame {
  std::string name;   ///< file basename under tests/corpus/schedbin/.
  std::string bytes;  ///< the container.
};

/// The seed frames: both kinds, both versions, every codec, single- and
/// multi-chunk, empty, and metadata-carrying.
inline std::vector<CorpusFrame> corpus_frames() {
  std::vector<CorpusFrame> frames;
  const auto add = [&](std::string name, std::string bytes) {
    frames.push_back({std::move(name), std::move(bytes)});
  };

  Rng link_rng(101);
  const LinkSchedule link = random_link_schedule(link_rng, 300);
  {
    SchedBinOptions o;
    o.version = kSchedBinVersion1;
    o.codec = SchedBinCodec::kDelta;
    o.chunk_words = 256;
    add("link_v1_delta.schedbin", link_schedule_to_schedbin(link, o));
    o.codec = SchedBinCodec::kRle;
    add("link_v1_rle.schedbin", link_schedule_to_schedbin(link, o));
    o.version = kSchedBinVersion2;
    o.codec = SchedBinCodec::kDict;
    o.metadata = {{"origin", "corpus"}, {"note", "seed frame"}};
    add("link_v2_dict.schedbin", link_schedule_to_schedbin(link, o));
  }
  {
    Rng big_rng(103);
    const LinkSchedule big = random_link_schedule(big_rng, 2000);
    SchedBinOptions o;
    o.codec = SchedBinCodec::kDelta;
    o.chunk_words = 512;
    add("link_v2_delta_multichunk.schedbin", link_schedule_to_schedbin(big, o));
  }
  {
    // 256-word chunks cut the 9 × 1500-word stream mid-column and cut runs
    // of the step and src columns, which the frame dictionary must count
    // once each: counted once per chunk, they would reorder 58 of its 767
    // entries.
    Rng sorted_rng(105);
    LinkSchedule sorted = random_link_schedule(sorted_rng, 1500);
    sort_in_compile_order(sorted);
    SchedBinOptions o;
    o.codec = SchedBinCodec::kDict;
    o.chunk_words = 256;
    add("link_v2_dict_multichunk.schedbin", link_schedule_to_schedbin(sorted, o));
  }
  {
    LinkSchedule empty;
    empty.num_nodes = 8;
    empty.num_steps = 3;
    SchedBinOptions o;
    o.codec = SchedBinCodec::kRaw;
    add("link_v2_raw_empty.schedbin", link_schedule_to_schedbin(empty, o));
  }

  const DiGraph cube = make_hypercube(4);
  Rng path_rng(202);
  const PathSchedule path = random_path_schedule(cube, path_rng, 200);
  {
    SchedBinOptions o;
    o.version = kSchedBinVersion1;
    o.codec = SchedBinCodec::kDelta;
    o.chunk_words = 128;
    add("path_v1_delta.schedbin", path_schedule_to_schedbin(cube, path, o));
    o.version = kSchedBinVersion2;
    o.codec = SchedBinCodec::kDict;
    o.metadata = {{"origin", "corpus"}};
    add("path_v2_dict.schedbin", path_schedule_to_schedbin(cube, path, o));
  }
  return frames;
}

}  // namespace a2a::corpus
