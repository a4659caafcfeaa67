// The whole-array SchedBin link path: a link schedule flattened into one
// 9 × T word array (columnar.hpp's layout), its inverse, and a container
// encoder over that array, as the library had them before it streamed link
// frames one chunk at a time. Kept outside the library as the oracle the
// streamed encoder and decoder are checked against, byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "container/schedbin.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

[[nodiscard]] std::vector<std::int64_t> link_schedule_to_words(
    const LinkSchedule& schedule);

/// Rebuilds a LinkSchedule from `record_count` transfers flattened by
/// link_schedule_to_words. Throws InvalidArgument when the word count does
/// not match.
[[nodiscard]] LinkSchedule link_schedule_from_words(
    const std::vector<std::int64_t>& words, int num_nodes, int num_steps,
    std::size_t record_count);

/// Frames a whole word array: header, chunks, frame dictionary (counted
/// over the array in one pass), directory or trailer, and CRCs. Records no
/// metrics.
[[nodiscard]] std::string encode_words_container_reference(
    SchedBinKind kind, int num_nodes, int num_steps,
    const Rational& chunk_unit, std::uint64_t record_count,
    const std::vector<std::int64_t>& words, const SchedBinOptions& options);

/// encode_words_container_reference over link_schedule_to_words(schedule).
[[nodiscard]] std::string link_schedule_to_schedbin_reference(
    const LinkSchedule& schedule, const SchedBinOptions& options = {});

/// Decodes the whole word array (SchedBinReader::decode_all), then
/// link_schedule_from_words.
[[nodiscard]] LinkSchedule link_schedule_from_schedbin_reference(
    std::string_view bytes);

}  // namespace a2a
