#include "reference/schedbin_reference.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "common/varint.hpp"
#include "container/columnar.hpp"

namespace a2a {

namespace {

constexpr std::size_t kHeaderBytes = 56;

/// Every word with at least two runs in words[0, count), by (runs desc,
/// value asc): the frame dictionary, counted over the whole array at once.
std::vector<std::int64_t> whole_array_dictionary(const std::int64_t* words,
                                                 std::size_t count) {
  std::unordered_map<std::int64_t, std::uint64_t> freq;
  std::size_t i = 0;
  while (i < count) {
    std::size_t run = 1;
    while (i + run < count && words[i + run] == words[i]) ++run;
    ++freq[words[i]];
    i += run;
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> repeated;
  for (const auto& [value, n] : freq) {
    if (n >= 2) repeated.push_back({value, n});
  }
  std::sort(repeated.begin(), repeated.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (repeated.size() > kSchedBinMaxDictEntries) {
    repeated.resize(kSchedBinMaxDictEntries);
  }
  std::vector<std::int64_t> dict;
  for (const auto& [value, n] : repeated) dict.push_back(value);
  return dict;
}

void append_header(std::string& out, SchedBinKind kind, std::uint16_t version,
                   SchedBinCodec codec, int num_nodes, int num_steps,
                   const Rational& chunk_unit, std::uint64_t record_count,
                   std::uint64_t word_count, std::uint32_t chunk_words,
                   std::uint32_t num_chunks) {
  out.append(kSchedBinMagic, sizeof(kSchedBinMagic));
  binio::put_u16(out, version);
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(codec));
  binio::put_u32(out, static_cast<std::uint32_t>(num_nodes));
  binio::put_u32(out, static_cast<std::uint32_t>(num_steps));
  binio::put_u64(out, record_count);
  binio::put_u64(out, word_count);
  binio::put_u64(out, static_cast<std::uint64_t>(chunk_unit.num()));
  binio::put_u64(out, static_cast<std::uint64_t>(chunk_unit.den()));
  binio::put_u32(out, chunk_words);
  binio::put_u32(out, num_chunks);
}

}  // namespace

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

std::string encode_words_container_reference(
    SchedBinKind kind, int num_nodes, int num_steps,
    const Rational& chunk_unit, std::uint64_t record_count,
    const std::vector<std::int64_t>& words, const SchedBinOptions& options) {
  const bool v2 = options.version == kSchedBinVersion2;
  A2A_REQUIRE(options.chunk_words > 0, "chunk_words must be positive");
  const std::size_t chunks =
      (words.size() + options.chunk_words - 1) / options.chunk_words;

  std::vector<std::int64_t> dict;
  std::unique_ptr<DictEncoder> dict_encoder;
  if (options.codec == SchedBinCodec::kDict) {
    dict = whole_array_dictionary(words.data(), words.size());
    dict_encoder =
        std::make_unique<DictEncoder>(DictView{dict.data(), dict.size()});
  }

  std::vector<std::string> payloads(chunks);
  std::vector<SchedBinCodec> chunk_codecs(chunks, options.codec);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * options.chunk_words;
    const std::size_t count =
        std::min<std::size_t>(words.size() - lo, options.chunk_words);
    const std::int64_t* span = words.data() + lo;
    if (options.codec != SchedBinCodec::kDict) {
      encode_words(options.codec, span, count, payloads[c]);
      continue;
    }
    // The smallest of dict/rle/delta/raw; on a tie the earlier one wins.
    std::string best;
    SchedBinCodec best_codec = SchedBinCodec::kDict;
    if (!dict.empty()) dict_encoder->encode(span, count, best);
    for (const SchedBinCodec alt :
         {SchedBinCodec::kRle, SchedBinCodec::kDelta, SchedBinCodec::kRaw}) {
      std::string candidate;
      encode_words(alt, span, count, candidate);
      if ((best_codec == SchedBinCodec::kDict && dict.empty()) ||
          candidate.size() < best.size()) {
        best = std::move(candidate);
        best_codec = alt;
      }
    }
    payloads[c] = std::move(best);
    chunk_codecs[c] = best_codec;
  }

  std::string out;
  append_header(out, kind, options.version, options.codec, num_nodes,
                num_steps, chunk_unit, record_count, words.size(),
                options.chunk_words, static_cast<std::uint32_t>(chunks));
  if (!v2) {
    for (const std::string& p : payloads) {
      binio::put_u32(out, static_cast<std::uint32_t>(p.size()));
      binio::put_u32(out, crc32(p.data(), p.size()));
    }
    for (const std::string& p : payloads) out.append(p);
    return out;
  }
  for (const std::string& p : payloads) out.append(p);
  const std::size_t trailer_offset = out.size();
  std::string trailer;
  append_uvarint(trailer, dict.size());
  for (const std::int64_t w : dict) append_svarint(trailer, w);
  append_uvarint(trailer, options.metadata.size());
  for (const auto& [key, value] : options.metadata) {
    append_uvarint(trailer, key.size());
    trailer.append(key);
    append_uvarint(trailer, value.size());
    trailer.append(value);
  }
  std::size_t offset = kHeaderBytes;
  for (std::size_t c = 0; c < chunks; ++c) {
    binio::put_u64(trailer, offset);
    binio::put_u32(trailer, static_cast<std::uint32_t>(payloads[c].size()));
    binio::put_u32(trailer, crc32(payloads[c].data(), payloads[c].size()));
    trailer.push_back(static_cast<char>(chunk_codecs[c]));
    offset += payloads[c].size();
  }
  out.append(trailer);
  binio::put_u64(out, trailer_offset);
  binio::put_u32(out, static_cast<std::uint32_t>(trailer.size()));
  binio::put_u32(out, crc32(trailer.data(), trailer.size()));
  binio::put_u32(out, crc32(out.data(), kHeaderBytes));
  out.append(kSchedBinTrailerMagic, sizeof(kSchedBinTrailerMagic));
  return out;
}

std::string link_schedule_to_schedbin_reference(const LinkSchedule& schedule,
                                                const SchedBinOptions& options) {
  return encode_words_container_reference(
      SchedBinKind::kLink, schedule.num_nodes, schedule.num_steps, Rational(0),
      schedule.transfers.size(), link_schedule_to_words(schedule), options);
}

LinkSchedule link_schedule_from_schedbin_reference(std::string_view bytes) {
  const SchedBinReader reader = SchedBinReader::from_bytes(bytes);
  const SchedBinInfo& info = reader.info();
  A2A_REQUIRE(info.kind == SchedBinKind::kLink, "not a link-schedule SchedBin");
  return link_schedule_from_words(reader.decode_all(), info.num_nodes,
                                  info.num_steps,
                                  static_cast<std::size_t>(info.record_count));
}

}  // namespace a2a
