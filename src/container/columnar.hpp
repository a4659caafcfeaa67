// Columnar flattening of schedules for the SchedBin container.
//
// SchedBin codecs operate on a flat stream of int64 words. A schedule is
// laid out column-major — all src values, then all dst values, ... — so that
// delta and run-length coding see the per-column regularity (compile order
// groups transfers by step and source) instead of interleaved noise.
//
// Link layout (9 columns × T transfers):
//   src | dst | lo_num | lo_den | hi_num | hi_den | from | to | step
//
// Link schedules are read and written through a column view: word w of the
// stream is column w / T of transfer w % T, gathered from or scattered into
// LinkSchedule::transfers one slice at a time, so neither direction builds
// the 9 × T word array (94.7 MB for 1.3M transfers). The whole-array
// flattening the container used before survives as the test oracle in
// tests/reference/schedbin_reference.hpp.
//
// Path layout (6 columns × R routes, then the ragged node lists):
//   src | dst | weight_bits | num_chunks | layer | path_len
//   followed by the concatenation of every route's node sequence
//   (path_len nodes each, including endpoints; 0 for an empty path).
//
// weight_bits is the IEEE-754 bit pattern of RouteEntry::weight, so path
// schedules round-trip bit-exactly (unlike the XML dialect, which snaps
// weights to bounded-denominator rationals).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

inline constexpr std::size_t kLinkColumns = 9;
inline constexpr std::size_t kPathColumns = 6;

/// Copies words [lo, lo + count) of `schedule`'s link stream into `out`.
void link_words_gather(const LinkSchedule& schedule, std::size_t lo,
                       std::size_t count, std::int64_t* out);

/// Writes words [lo, lo + count) of a link stream into `schedule`, whose
/// transfers are already sized to the stream's record count. A transfer's
/// lo_num (hi_num) word must arrive before its lo_den (hi_den) word, which
/// completes the rational and throws InvalidArgument on a zero denominator.
void link_words_scatter(const std::int64_t* words, std::size_t lo,
                        std::size_t count, LinkSchedule& schedule);

[[nodiscard]] std::vector<std::int64_t> path_schedule_to_words(
    const DiGraph& g, const PathSchedule& schedule);

/// Rebuilds a PathSchedule against `g` (route node sequences are resolved
/// back to edge ids, rejecting non-edges like the XML reader does).
[[nodiscard]] PathSchedule path_schedule_from_words(
    const DiGraph& g, const std::vector<std::int64_t>& words, int num_nodes,
    const Rational& chunk_unit, std::size_t record_count);

}  // namespace a2a
