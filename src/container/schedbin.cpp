#include "container/schedbin.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "common/mmap_file.hpp"
#include "common/varint.hpp"
#include "container/columnar.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

using binio::get_uint;
using binio::put_u16;
using binio::put_u32;
using binio::put_u64;

constexpr std::size_t kHeaderBytes = 56;
constexpr std::size_t kDirEntryBytesV1 = 8;
constexpr std::size_t kDirEntryBytesV2 = 17;  // u64 offset, u32 size, u32 crc, u8 codec
constexpr std::size_t kFooterBytes = 24;

/// Generous ceiling on payload words (8 TiB raw): headers claiming more are
/// corrupt, and rejecting them here keeps the error contract (InvalidArgument,
/// not std::length_error from a wild vector allocation).
constexpr std::uint64_t kMaxWordCount = 1ULL << 40;

std::size_t chunk_count(std::uint64_t word_count, std::uint32_t chunk_words) {
  // word_count is validated <= kMaxWordCount before use, so no overflow.
  return static_cast<std::size_t>((word_count + chunk_words - 1) / chunk_words);
}

/// Least bytes `words` payload words can occupy under `codec`; anything
/// smaller cannot be a valid chunk, so a header demanding a large decode
/// from a tiny payload is rejected before any decode buffer is sized.
std::size_t min_encoded_bytes(SchedBinCodec codec, std::size_t words) {
  switch (codec) {
    case SchedBinCodec::kRaw: return words * 8;       // exact, checked below
    case SchedBinCodec::kDelta: return words;         // >= 1 byte per svarint
    case SchedBinCodec::kRle: return words > 0 ? 2 : 0;  // >= one (value, run)
    case SchedBinCodec::kDict: return words > 0 ? 2 : 0; // >= one (token, run)
  }
  return 0;
}

void check_metadata_limits(const SchedBinMetadata& metadata) {
  A2A_REQUIRE(metadata.size() <= kSchedBinMaxMetaPairs, "SchedBin metadata has ",
              metadata.size(), " pairs, above the ", kSchedBinMaxMetaPairs,
              " ceiling");
  for (const auto& [key, value] : metadata) {
    A2A_REQUIRE(!key.empty() && key.size() <= kSchedBinMaxMetaKeyBytes,
                "SchedBin metadata key of ", key.size(),
                " bytes (must be 1..", kSchedBinMaxMetaKeyBytes, ")");
    A2A_REQUIRE(value.size() <= kSchedBinMaxMetaValueBytes,
                "SchedBin metadata value of ", value.size(),
                " bytes, above the ", kSchedBinMaxMetaValueBytes, " ceiling");
  }
}

void append_header(std::string& out, SchedBinKind kind, std::uint16_t version,
                   SchedBinCodec codec, int num_nodes, int num_steps,
                   const Rational& chunk_unit, std::uint64_t record_count,
                   std::uint64_t word_count, std::uint32_t chunk_words,
                   std::uint32_t num_chunks) {
  out.append(kSchedBinMagic, sizeof(kSchedBinMagic));
  put_u16(out, version);
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(codec));
  put_u32(out, static_cast<std::uint32_t>(num_nodes));
  put_u32(out, static_cast<std::uint32_t>(num_steps));
  put_u64(out, record_count);
  put_u64(out, word_count);
  put_u64(out, static_cast<std::uint64_t>(chunk_unit.num()));
  put_u64(out, static_cast<std::uint64_t>(chunk_unit.den()));
  put_u32(out, chunk_words);
  put_u32(out, num_chunks);
}

/// A frame's payload word stream, read in order one slice at a time:
/// read(lo, count) returns words [lo, lo + count), valid until the next
/// read.
struct WordSource {
  std::size_t size = 0;
  std::function<const std::int64_t*(std::size_t lo, std::size_t count)> read;
};

/// A source over words the caller already holds (path frames, convert).
WordSource vector_source(const std::vector<std::int64_t>& words) {
  return {words.size(), [&words](std::size_t lo, std::size_t) {
            return words.data() + lo;
          }};
}

/// A source over a link schedule's columns (columnar.hpp's column view),
/// gathered into one slice-sized buffer: nothing holds the whole stream.
WordSource link_source(const LinkSchedule& schedule) {
  return {kLinkColumns * schedule.transfers.size(),
          [&schedule, buf = std::vector<std::int64_t>()](
              std::size_t lo, std::size_t count) mutable {
            buf.resize(count);
            link_words_gather(schedule, lo, count, buf.data());
            return static_cast<const std::int64_t*>(buf.data());
          }};
}

std::string encode_container(SchedBinKind kind, int num_nodes, int num_steps,
                             const Rational& chunk_unit,
                             std::uint64_t record_count, WordSource words,
                             const SchedBinOptions& options) {
  A2A_REQUIRE(options.version == kSchedBinVersion1 ||
                  options.version == kSchedBinVersion2,
              "unsupported SchedBin write version ", options.version);
  A2A_REQUIRE(options.chunk_words > 0, "chunk_words must be positive");
  A2A_REQUIRE(options.chunk_words <= kSchedBinMaxChunkWords,
              "chunk_words ", options.chunk_words, " above the ",
              kSchedBinMaxChunkWords, " ceiling");
  (void)codec_name(options.codec);  // validates the codec id.
  const bool v2 = options.version == kSchedBinVersion2;
  A2A_REQUIRE(v2 || options.codec != SchedBinCodec::kDict,
              "the dict codec needs a v2 frame (v1 has no dictionary trailer)");
  A2A_REQUIRE(v2 || options.metadata.empty(),
              "v1 frames cannot carry metadata — write version 2");
  check_metadata_limits(options.metadata);
  const std::size_t chunks = chunk_count(words.size, options.chunk_words);
  obs::TraceSpan span("stage.encode",
                      std::string(codec_name(options.codec)) + ", " +
                          std::to_string(chunks) + " chunks");
  const auto encode_start = std::chrono::steady_clock::now();
  A2A_COUNTER("schedbin.encode.calls").inc();
  A2A_COUNTER("schedbin.encode.raw_bytes").add(words.size * 8);
  const auto finish_encode_metrics = [&](const std::string& frame) {
    A2A_COUNTER("schedbin.encode.encoded_bytes").add(frame.size());
    A2A_HISTOGRAM("schedbin.encode.seconds")
        .observe_seconds(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - encode_start)
                             .count());
  };

  const auto read_chunk = [&](std::size_t c) {
    const std::size_t lo = c * options.chunk_words;
    const std::size_t count =
        std::min<std::size_t>(words.size - lo, options.chunk_words);
    return std::span<const std::int64_t>(words.read(lo, count), count);
  };

  // The dict codec builds one dictionary over the whole frame, then every
  // chunk keeps the smallest of its dict/rle/delta/raw encodings (per-chunk
  // fallback: a chunk of monotone or run-only data should not pay dict
  // token overhead just because the frame has a dictionary).
  std::vector<std::int64_t> dict;
  std::unique_ptr<DictEncoder> dict_encoder;
  if (options.codec == SchedBinCodec::kDict) {
    DictionaryBuilder builder;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto chunk = read_chunk(c);
      builder.add(chunk.data(), chunk.size());
    }
    dict = builder.build();
    dict_encoder =
        std::make_unique<DictEncoder>(DictView{dict.data(), dict.size()});
  }

  // Compress every chunk independently.
  std::vector<std::string> payloads(chunks);
  std::vector<SchedBinCodec> chunk_codecs(chunks, options.codec);
  const auto compress_one = [&](std::size_t c) {
    const auto chunk = read_chunk(c);
    const std::int64_t* span = chunk.data();
    const std::size_t count = chunk.size();
    if (options.codec != SchedBinCodec::kDict) {
      encode_words(options.codec, span, count, payloads[c]);
      return;
    }
    std::string best;
    SchedBinCodec best_codec = SchedBinCodec::kDict;
    if (!dict.empty()) dict_encoder->encode(span, count, best);
    for (const SchedBinCodec alt :
         {SchedBinCodec::kRle, SchedBinCodec::kDelta, SchedBinCodec::kRaw}) {
      std::string candidate;
      encode_words(alt, span, count, candidate);
      if (best_codec == SchedBinCodec::kDict && dict.empty()) {
        best = std::move(candidate);  // no dictionary: first alt seeds best
        best_codec = alt;
      } else if (candidate.size() < best.size()) {
        best = std::move(candidate);
        best_codec = alt;
      }
    }
    payloads[c] = std::move(best);
    chunk_codecs[c] = best_codec;
  };
  for (std::size_t c = 0; c < chunks; ++c) compress_one(c);

  if (options.codec == SchedBinCodec::kDict) {
    // Per-codec chunk tally, aggregated after the loop so the hot loop
    // stays free of counters.
    std::size_t by_codec[4] = {0, 0, 0, 0};
    for (const SchedBinCodec c : chunk_codecs) {
      ++by_codec[static_cast<std::size_t>(c)];
    }
    std::size_t fallbacks = 0;
    for (const SchedBinCodec alt :
         {SchedBinCodec::kRaw, SchedBinCodec::kRle, SchedBinCodec::kDelta}) {
      const std::size_t n = by_codec[static_cast<std::size_t>(alt)];
      fallbacks += n;
      obs::MetricsRegistry::global()
          .counter(std::string("schedbin.encode.chunks.") + codec_name(alt))
          .add(n);
    }
    obs::MetricsRegistry::global()
        .counter("schedbin.encode.chunks.dict")
        .add(by_codec[static_cast<std::size_t>(SchedBinCodec::kDict)]);
    A2A_COUNTER("schedbin.encode.chunk_fallbacks").add(fallbacks);
    if (fallbacks > 0) {
      span.annotate(std::to_string(fallbacks) + " chunk codec fallbacks");
    }
  }

  std::size_t payload_bytes = 0;
  for (const std::string& p : payloads) payload_bytes += p.size();

  std::string out;
  if (!v2) {
    out.reserve(kHeaderBytes + chunks * kDirEntryBytesV1 + payload_bytes);
    append_header(out, kind, kSchedBinVersion1, options.codec, num_nodes,
                  num_steps, chunk_unit, record_count, words.size,
                  options.chunk_words, static_cast<std::uint32_t>(chunks));
    for (const std::string& p : payloads) {
      put_u32(out, static_cast<std::uint32_t>(p.size()));
      put_u32(out, crc32(p.data(), p.size()));
    }
    for (const std::string& p : payloads) out.append(p);
    finish_encode_metrics(out);
    return out;
  }

  out.reserve(kHeaderBytes + payload_bytes + chunks * kDirEntryBytesV2 +
              dict.size() * 4 + kFooterBytes + 64);
  append_header(out, kind, kSchedBinVersion2, options.codec, num_nodes,
                num_steps, chunk_unit, record_count, words.size,
                options.chunk_words, static_cast<std::uint32_t>(chunks));
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
    put_u64(trailer, offset);
    put_u32(trailer, static_cast<std::uint32_t>(payloads[c].size()));
    put_u32(trailer, crc32(payloads[c].data(), payloads[c].size()));
    trailer.push_back(static_cast<char>(chunk_codecs[c]));
    offset += payloads[c].size();
  }
  out.append(trailer);

  put_u64(out, trailer_offset);
  put_u32(out, static_cast<std::uint32_t>(trailer.size()));
  put_u32(out, crc32(trailer.data(), trailer.size()));
  put_u32(out, crc32(out.data(), kHeaderBytes));
  out.append(kSchedBinTrailerMagic, sizeof(kSchedBinTrailerMagic));
  finish_encode_metrics(out);
  return out;
}

struct ParsedContainer {
  SchedBinInfo info;
  /// Byte offset of each chunk's payload within the container.
  std::vector<std::size_t> chunk_offsets;
  std::vector<std::uint32_t> chunk_sizes;
  std::vector<std::uint32_t> chunk_crcs;
  std::vector<SchedBinCodec> chunk_codecs;
  std::vector<std::int64_t> dict;  ///< v2 frame dictionary.
};

/// Validates one directory entry's declared payload size against the
/// codec's best possible compression, ahead of any decode allocation.
void check_chunk_floor(const SchedBinInfo& info, std::size_t c,
                       SchedBinCodec codec, std::uint32_t size) {
  const std::size_t lo_word = c * info.chunk_words;
  const std::size_t hi_word = std::min<std::size_t>(
      static_cast<std::size_t>(info.word_count), lo_word + info.chunk_words);
  const std::size_t declared = hi_word - lo_word;
  const std::size_t floor_bytes = min_encoded_bytes(codec, declared);
  A2A_REQUIRE(size >= floor_bytes,
              "SchedBin chunk ", c, " declares ", declared,
              " decoded words but holds only ", size,
              " payload bytes (needs >= ", floor_bytes, ")");
  if (codec == SchedBinCodec::kRaw) {
    A2A_REQUIRE(size == floor_bytes, "SchedBin raw chunk ", c, " holds ",
                size, " bytes for ", declared, " words");
  }
}

/// Parses and validates the fixed 56-byte header shared by v1 and v2.
void parse_header(std::string_view bytes, SchedBinInfo& info,
                  std::uint64_t max_decoded_bytes) {
  A2A_REQUIRE(std::memcmp(bytes.data(), kSchedBinMagic,
                          sizeof(kSchedBinMagic)) == 0,
              "bad SchedBin magic");
  info.version = static_cast<std::uint16_t>(get_uint(bytes, 4, 2));
  // Version gates everything else: a future-version frame may repurpose
  // any later field, and must fail as "unsupported version", not as a
  // misleading corruption diagnostic from a v1/v2-semantics check.
  A2A_REQUIRE(info.version == kSchedBinVersion1 ||
                  info.version == kSchedBinVersion2,
              "unsupported SchedBin version ", info.version);
  const auto kind = static_cast<std::uint8_t>(bytes[6]);
  A2A_REQUIRE(kind == static_cast<std::uint8_t>(SchedBinKind::kLink) ||
                  kind == static_cast<std::uint8_t>(SchedBinKind::kPath),
              "unknown SchedBin kind ", int(kind));
  info.kind = static_cast<SchedBinKind>(kind);
  info.codec = static_cast<SchedBinCodec>(bytes[7]);
  (void)codec_name(info.codec);
  info.num_nodes = static_cast<int>(get_uint(bytes, 8, 4));
  info.num_steps = static_cast<int>(get_uint(bytes, 12, 4));
  info.record_count = get_uint(bytes, 16, 8);
  info.word_count = get_uint(bytes, 24, 8);
  const auto cu_num = static_cast<std::int64_t>(get_uint(bytes, 32, 8));
  const auto cu_den = static_cast<std::int64_t>(get_uint(bytes, 40, 8));
  A2A_REQUIRE(cu_den != 0, "SchedBin chunk_unit with zero denominator");
  info.chunk_unit = Rational(cu_num, cu_den);
  info.chunk_words = static_cast<std::uint32_t>(get_uint(bytes, 48, 4));
  info.num_chunks = static_cast<std::uint32_t>(get_uint(bytes, 52, 4));
  A2A_REQUIRE(info.chunk_words > 0, "SchedBin chunk_words is zero");
  A2A_REQUIRE(info.chunk_words <= kSchedBinMaxChunkWords,
              "SchedBin chunk_words ", info.chunk_words, " above the ",
              kSchedBinMaxChunkWords, " ceiling");
  A2A_REQUIRE(info.word_count <= kMaxWordCount,
              "SchedBin word count ", info.word_count, " is implausibly large");
  A2A_REQUIRE(info.word_count * 8 <= max_decoded_bytes,
              "SchedBin decoded payload would be ", info.word_count * 8,
              " bytes, above the ", max_decoded_bytes,
              "-byte decode budget — refusing to allocate");
  A2A_REQUIRE(info.num_chunks == chunk_count(info.word_count, info.chunk_words),
              "SchedBin chunk count ", info.num_chunks,
              " inconsistent with word count ", info.word_count);
}

void parse_v1_body(std::string_view bytes, ParsedContainer& pc) {
  SchedBinInfo& info = pc.info;
  A2A_REQUIRE(info.codec != SchedBinCodec::kDict,
              "v1 SchedBin frame claims the dict codec (needs a v2 trailer)");
  const std::size_t dir_end =
      kHeaderBytes + static_cast<std::size_t>(info.num_chunks) * kDirEntryBytesV1;
  A2A_REQUIRE(bytes.size() >= dir_end, "SchedBin directory truncated");
  std::size_t offset = dir_end;
  pc.chunk_offsets.reserve(info.num_chunks);
  pc.chunk_sizes.reserve(info.num_chunks);
  pc.chunk_crcs.reserve(info.num_chunks);
  for (std::uint32_t c = 0; c < info.num_chunks; ++c) {
    const std::size_t entry = kHeaderBytes + c * kDirEntryBytesV1;
    const auto size = static_cast<std::uint32_t>(get_uint(bytes, entry, 4));
    // Growth clamp: the chunk's declared decoded size must be reachable
    // from its payload under the codec's best possible compression (raw is
    // byte-exact, delta >= 1 byte/word, rle >= one run). A directory entry
    // that breaks this is corrupt, and failing here keeps the error ahead
    // of both the payload allocation and the per-chunk decoders.
    check_chunk_floor(info, c, info.codec, size);
    pc.chunk_offsets.push_back(offset);
    pc.chunk_sizes.push_back(size);
    pc.chunk_crcs.push_back(static_cast<std::uint32_t>(get_uint(bytes, entry + 4, 4)));
    offset += size;
    info.payload_bytes += size;
  }
  A2A_REQUIRE(offset == bytes.size(), "SchedBin payload size mismatch: ",
              offset, " expected vs ", bytes.size(), " actual");
  pc.chunk_codecs.assign(info.num_chunks, info.codec);
}

void parse_v2_body(std::string_view bytes, ParsedContainer& pc) {
  SchedBinInfo& info = pc.info;
  A2A_REQUIRE(bytes.size() >= kHeaderBytes + kFooterBytes,
              "SchedBin v2 blob too small for a footer: ", bytes.size(),
              " bytes");
  A2A_REQUIRE(std::memcmp(bytes.data() + bytes.size() - 4,
                          kSchedBinTrailerMagic, 4) == 0,
              "bad SchedBin trailer magic");
  const std::size_t footer = bytes.size() - kFooterBytes;
  const std::uint64_t trailer_offset = get_uint(bytes, footer, 8);
  const auto trailer_bytes =
      static_cast<std::size_t>(get_uint(bytes, footer + 8, 4));
  const auto trailer_crc =
      static_cast<std::uint32_t>(get_uint(bytes, footer + 12, 4));
  const auto header_crc =
      static_cast<std::uint32_t>(get_uint(bytes, footer + 16, 4));
  A2A_REQUIRE(crc32(bytes.data(), kHeaderBytes) == header_crc,
              "SchedBin header failed CRC check");
  // Bound the offset before any arithmetic: a forged 64-bit offset near
  // 2^64 would wrap the sum below into a false pass and send substr() past
  // the container.
  A2A_REQUIRE(trailer_offset >= kHeaderBytes && trailer_offset <= bytes.size(),
              "SchedBin trailer offset ", trailer_offset, " out of range");
  A2A_REQUIRE(trailer_offset + trailer_bytes + kFooterBytes == bytes.size(),
              "SchedBin trailer geometry inconsistent: offset=", trailer_offset,
              " bytes=", trailer_bytes, " total=", bytes.size());
  const std::string_view trailer =
      bytes.substr(static_cast<std::size_t>(trailer_offset), trailer_bytes);
  A2A_REQUIRE(crc32(trailer.data(), trailer.size()) == trailer_crc,
              "SchedBin trailer failed CRC check");
  info.trailer_bytes = trailer_bytes;

  std::size_t pos = 0;
  const std::uint64_t dict_count =
      read_uvarint(trailer.data(), trailer.size(), pos);
  A2A_REQUIRE(dict_count <= kSchedBinMaxDictEntries,
              "SchedBin dictionary claims ", dict_count, " entries, above the ",
              kSchedBinMaxDictEntries, " ceiling");
  pc.dict.reserve(static_cast<std::size_t>(dict_count));
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    pc.dict.push_back(read_svarint(trailer.data(), trailer.size(), pos));
  }
  info.dict_words = pc.dict.size();
  A2A_REQUIRE(info.codec == SchedBinCodec::kDict || pc.dict.empty(),
              "SchedBin frame carries a dictionary but is not dict-coded");

  const std::uint64_t meta_pairs =
      read_uvarint(trailer.data(), trailer.size(), pos);
  A2A_REQUIRE(meta_pairs <= kSchedBinMaxMetaPairs, "SchedBin metadata claims ",
              meta_pairs, " pairs, above the ", kSchedBinMaxMetaPairs,
              " ceiling");
  for (std::uint64_t i = 0; i < meta_pairs; ++i) {
    const std::uint64_t klen = read_uvarint(trailer.data(), trailer.size(), pos);
    A2A_REQUIRE(klen >= 1 && klen <= kSchedBinMaxMetaKeyBytes &&
                    klen <= trailer.size() - pos,
                "SchedBin metadata key length ", klen, " out of range");
    std::string key(trailer.substr(pos, static_cast<std::size_t>(klen)));
    pos += static_cast<std::size_t>(klen);
    const std::uint64_t vlen = read_uvarint(trailer.data(), trailer.size(), pos);
    A2A_REQUIRE(vlen <= kSchedBinMaxMetaValueBytes &&
                    vlen <= trailer.size() - pos,
                "SchedBin metadata value length ", vlen, " out of range");
    std::string value(trailer.substr(pos, static_cast<std::size_t>(vlen)));
    pos += static_cast<std::size_t>(vlen);
    info.metadata.emplace_back(std::move(key), std::move(value));
  }

  A2A_REQUIRE(trailer.size() - pos ==
                  static_cast<std::size_t>(info.num_chunks) * kDirEntryBytesV2,
              "SchedBin chunk directory truncated: ", trailer.size() - pos,
              " bytes for ", info.num_chunks, " chunks");
  pc.chunk_offsets.reserve(info.num_chunks);
  pc.chunk_sizes.reserve(info.num_chunks);
  pc.chunk_crcs.reserve(info.num_chunks);
  pc.chunk_codecs.reserve(info.num_chunks);
  std::size_t expected_offset = kHeaderBytes;
  for (std::uint32_t c = 0; c < info.num_chunks; ++c) {
    const std::uint64_t offset = get_uint(trailer, pos, 8);
    const auto size = static_cast<std::uint32_t>(get_uint(trailer, pos + 8, 4));
    const auto crc = static_cast<std::uint32_t>(get_uint(trailer, pos + 12, 4));
    const auto codec = static_cast<SchedBinCodec>(
        static_cast<unsigned char>(trailer[pos + 16]));
    pos += kDirEntryBytesV2;
    (void)codec_name(codec);
    // A dict frame's chunks may individually fall back to any codec; under
    // any other frame codec the directory must agree with the header.
    A2A_REQUIRE(info.codec == SchedBinCodec::kDict || codec == info.codec,
                "SchedBin chunk ", c, " codec ", codec_name(codec),
                " disagrees with frame codec ", codec_name(info.codec));
    A2A_REQUIRE(offset == expected_offset,
                "SchedBin chunk ", c, " offset ", offset,
                " breaks payload contiguity (expected ", expected_offset, ")");
    check_chunk_floor(info, c, codec, size);
    pc.chunk_offsets.push_back(static_cast<std::size_t>(offset));
    pc.chunk_sizes.push_back(size);
    pc.chunk_crcs.push_back(crc);
    pc.chunk_codecs.push_back(codec);
    expected_offset += size;
    info.payload_bytes += size;
  }
  A2A_REQUIRE(expected_offset == trailer_offset,
              "SchedBin payload size mismatch: chunks end at ", expected_offset,
              " but the trailer starts at ", trailer_offset);
}

ParsedContainer parse_container(std::string_view bytes,
                                std::uint64_t max_decoded_bytes) {
  A2A_REQUIRE(bytes.size() >= kHeaderBytes,
              "SchedBin blob too small: ", bytes.size(), " bytes");
  ParsedContainer pc;
  parse_header(bytes, pc.info, max_decoded_bytes);
  if (pc.info.version == kSchedBinVersion1) {
    parse_v1_body(bytes, pc);
  } else {
    parse_v2_body(bytes, pc);  // parse_header admits only v1/v2
  }
  pc.info.total_bytes = bytes.size();
  return pc;
}

/// CRC-checks and decodes chunk `c` of a parsed container into `out`, which
/// has room for the chunk's words. The only bytes touched are the chunk's
/// own payload.
void decode_chunk_at(std::string_view bytes, const ParsedContainer& pc,
                     std::size_t c, std::int64_t* out) {
  const SchedBinInfo& info = pc.info;
  const char* data = bytes.data() + pc.chunk_offsets[c];
  const std::size_t size = pc.chunk_sizes[c];
  A2A_REQUIRE(crc32(data, size) == pc.chunk_crcs[c],
              "SchedBin chunk ", c, " failed CRC check");
  const std::size_t lo = c * info.chunk_words;
  const std::size_t hi =
      std::min<std::size_t>(info.word_count, lo + info.chunk_words);
  if (pc.chunk_codecs[c] == SchedBinCodec::kDict) {
    decode_words_dict(DictView{pc.dict.data(), pc.dict.size()}, data, size,
                      out, hi - lo);
  } else {
    decode_words(pc.chunk_codecs[c], data, size, out, hi - lo);
  }
}

/// Runs `decode_chunks`, a whole-payload decode, inside the schedbin.decode
/// span and counts it in the schedbin.decode.* metrics.
template <typename Fn>
void counted_decode(const SchedBinInfo& info, Fn&& decode_chunks) {
  A2A_TRACE_SPAN("schedbin.decode",
                 std::to_string(info.num_chunks) + " chunks");
  const auto decode_start = std::chrono::steady_clock::now();
  decode_chunks();
  A2A_COUNTER("schedbin.decode.calls").inc();
  A2A_COUNTER("schedbin.decode.payload_bytes").add(info.payload_bytes);
  A2A_COUNTER("schedbin.decode.decoded_bytes").add(info.word_count * 8);
  A2A_HISTOGRAM("schedbin.decode.seconds")
      .observe_seconds(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - decode_start)
                           .count());
}

/// The whole word stream, for path frames and transcoding.
std::vector<std::int64_t> decode_payload(std::string_view bytes,
                                         const ParsedContainer& pc) {
  const SchedBinInfo& info = pc.info;
  std::vector<std::int64_t> words(info.word_count);
  counted_decode(info, [&] {
    for (std::size_t c = 0; c < info.num_chunks; ++c) {
      decode_chunk_at(bytes, pc, c, words.data() + c * info.chunk_words);
    }
  });
  return words;
}

/// Transfers per block of the link decode: 224 KiB of transfers, so a
/// block's cache lines stay resident while all nine columns fill them.
constexpr std::size_t kLinkRowBlock = 4096;

/// Decodes the payload into the transfers a block of rows at a time, all
/// nine columns per block, so each transfer's cache lines are written once
/// rather than once per column. Each column reads from the decoded chunk
/// its rows lie in, shared with any column in the same chunk: at most nine
/// chunks, and never more than the stream's own words, are held at once. A
/// chunk that spans columns is decoded again when no column still holds it.
LinkSchedule decode_link(std::string_view bytes, const ParsedContainer& pc) {
  const SchedBinInfo& info = pc.info;
  A2A_REQUIRE(info.kind == SchedBinKind::kLink, "not a link-schedule SchedBin");
  // Divide, don't multiply: `kLinkColumns * record_count` wraps for a
  // hostile 64-bit record count, turning a mismatch into a false pass (and
  // the resize below into a wild allocation). The decode budget already
  // bounds word_count, and so the transfers.
  A2A_REQUIRE(info.record_count <= info.word_count / kLinkColumns &&
                  info.word_count == kLinkColumns * info.record_count,
              "link word stream has ", info.word_count, " words for ",
              info.record_count, " records");
  LinkSchedule out;
  out.num_nodes = info.num_nodes;
  out.num_steps = info.num_steps;
  out.transfers.resize(static_cast<std::size_t>(info.record_count));
  const std::size_t t = out.transfers.size();
  const std::size_t chunk_words = info.chunk_words;

  struct Column {
    std::size_t chunk = SIZE_MAX;  ///< the chunk `words` holds.
    std::shared_ptr<std::vector<std::int64_t>> words;
  };
  std::array<Column, kLinkColumns> columns;
  const auto load = [&](Column& column, std::size_t c) {
    column.chunk = c;
    for (const Column& other : columns) {
      if (&other != &column && other.chunk == c) {
        column.words = other.words;
        return;
      }
    }
    if (!column.words || column.words.use_count() > 1) {
      column.words = std::make_shared<std::vector<std::int64_t>>();
    }
    const std::size_t lo = c * chunk_words;
    column.words->resize(
        std::min<std::size_t>(info.word_count - lo, chunk_words));
    decode_chunk_at(bytes, pc, c, column.words->data());
  };
  counted_decode(info, [&] {
    for (std::size_t row = 0; row < t; row += kLinkRowBlock) {
      const std::size_t rows = std::min(kLinkRowBlock, t - row);
      for (std::size_t col = 0; col < kLinkColumns; ++col) {
        Column& column = columns[col];
        for (std::size_t w = col * t + row, end = w + rows; w < end;) {
          const std::size_t c = w / chunk_words;
          if (column.chunk != c) load(column, c);
          const std::size_t lo = c * chunk_words;
          const std::size_t n = std::min(end, lo + chunk_words) - w;
          link_words_scatter(column.words->data() + (w - lo), w, n, out);
          w += n;
        }
      }
    }
  });
  return out;
}

}  // namespace

std::string link_schedule_to_schedbin(const LinkSchedule& schedule,
                                      const SchedBinOptions& options) {
  return encode_container(SchedBinKind::kLink, schedule.num_nodes,
                          schedule.num_steps, Rational(0),
                          schedule.transfers.size(), link_source(schedule),
                          options);
}

LinkSchedule link_schedule_from_schedbin(std::string_view bytes,
                                         std::uint64_t max_decoded_bytes) {
  return decode_link(bytes, parse_container(bytes, max_decoded_bytes));
}

std::string path_schedule_to_schedbin(const DiGraph& g,
                                      const PathSchedule& schedule,
                                      const SchedBinOptions& options) {
  const std::vector<std::int64_t> words = path_schedule_to_words(g, schedule);
  return encode_container(SchedBinKind::kPath, schedule.num_nodes, 0,
                          schedule.chunk_unit, schedule.entries.size(),
                          vector_source(words), options);
}

PathSchedule path_schedule_from_schedbin(const DiGraph& g,
                                         std::string_view bytes,
                                         std::uint64_t max_decoded_bytes) {
  const ParsedContainer pc = parse_container(bytes, max_decoded_bytes);
  A2A_REQUIRE(pc.info.kind == SchedBinKind::kPath,
              "not a path-schedule SchedBin");
  const std::vector<std::int64_t> words = decode_payload(bytes, pc);
  return path_schedule_from_words(g, words, pc.info.num_nodes,
                                  pc.info.chunk_unit,
                                  static_cast<std::size_t>(pc.info.record_count));
}

SchedBinInfo schedbin_inspect(std::string_view bytes,
                              std::uint64_t max_decoded_bytes) {
  const ParsedContainer pc = parse_container(bytes, max_decoded_bytes);
  for (std::uint32_t c = 0; c < pc.info.num_chunks; ++c) {
    A2A_REQUIRE(crc32(bytes.data() + pc.chunk_offsets[c], pc.chunk_sizes[c]) ==
                    pc.chunk_crcs[c],
                "SchedBin chunk ", c, " failed CRC check");
  }
  return pc.info;
}

std::string schedbin_convert(std::string_view bytes, SchedBinOptions options,
                             std::uint64_t max_decoded_bytes) {
  const ParsedContainer pc = parse_container(bytes, max_decoded_bytes);
  const std::vector<std::int64_t> words = decode_payload(bytes, pc);
  // Frame metadata rides along unless the caller stamps its own; v1 targets
  // cannot carry any, so conversion down-level drops it by design.
  if (options.metadata.empty() && options.version == kSchedBinVersion2) {
    options.metadata = pc.info.metadata;
  }
  return encode_container(pc.info.kind, pc.info.num_nodes, pc.info.num_steps,
                          pc.info.chunk_unit, pc.info.record_count,
                          vector_source(words), options);
}

// ------------------------------------------------------------- the reader ---

struct SchedBinReader::Impl {
  MmapFile map;             ///< holds the mapping for open_file readers.
  std::string_view bytes;   ///< the container (mapped or caller-owned).
  ParsedContainer pc;
  std::size_t overhead_bytes = 0;  ///< header + directory/trailer + footer.
  mutable std::atomic<std::size_t> payload_read{0};
};

SchedBinReader::SchedBinReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
SchedBinReader::~SchedBinReader() = default;
SchedBinReader::SchedBinReader(SchedBinReader&&) noexcept = default;
SchedBinReader& SchedBinReader::operator=(SchedBinReader&&) noexcept = default;

namespace {

std::size_t reader_overhead(const SchedBinInfo& info) {
  if (info.version == kSchedBinVersion1) {
    return kHeaderBytes +
           static_cast<std::size_t>(info.num_chunks) * kDirEntryBytesV1;
  }
  return kHeaderBytes + info.trailer_bytes + kFooterBytes;
}

}  // namespace

SchedBinReader SchedBinReader::open_file(const std::string& path,
                                         std::uint64_t max_decoded_bytes) {
  auto impl = std::make_unique<Impl>();
  impl->map = MmapFile(path);
  impl->bytes = impl->map.view();
  impl->pc = parse_container(impl->bytes, max_decoded_bytes);
  impl->overhead_bytes = reader_overhead(impl->pc.info);
  return SchedBinReader(std::move(impl));
}

SchedBinReader SchedBinReader::from_bytes(std::string_view bytes,
                                          std::uint64_t max_decoded_bytes) {
  auto impl = std::make_unique<Impl>();
  impl->bytes = bytes;
  impl->pc = parse_container(bytes, max_decoded_bytes);
  impl->overhead_bytes = reader_overhead(impl->pc.info);
  return SchedBinReader(std::move(impl));
}

const SchedBinInfo& SchedBinReader::info() const { return impl_->pc.info; }

std::uint32_t SchedBinReader::num_chunks() const {
  return impl_->pc.info.num_chunks;
}

std::size_t SchedBinReader::chunk_word_count(std::uint32_t c) const {
  const SchedBinInfo& info = impl_->pc.info;
  A2A_REQUIRE(c < info.num_chunks, "chunk ", c, " out of range (",
              info.num_chunks, " chunks)");
  const std::size_t lo = static_cast<std::size_t>(c) * info.chunk_words;
  return std::min<std::size_t>(static_cast<std::size_t>(info.word_count),
                               lo + info.chunk_words) -
         lo;
}

SchedBinReader::ChunkEntry SchedBinReader::chunk_entry(std::uint32_t c) const {
  A2A_REQUIRE(c < impl_->pc.info.num_chunks, "chunk ", c, " out of range (",
              impl_->pc.info.num_chunks, " chunks)");
  return {impl_->pc.chunk_offsets[c], impl_->pc.chunk_sizes[c],
          impl_->pc.chunk_crcs[c], impl_->pc.chunk_codecs[c]};
}

std::size_t SchedBinReader::decode_chunk(std::uint32_t c,
                                         std::vector<std::int64_t>& out) const {
  const std::size_t count = chunk_word_count(c);
  out.resize(count);
  decode_chunk_at(impl_->bytes, impl_->pc, c, out.data());
  impl_->payload_read.fetch_add(impl_->pc.chunk_sizes[c],
                                std::memory_order_relaxed);
  return count;
}

std::vector<std::int64_t> SchedBinReader::decode_all() const {
  std::vector<std::int64_t> words = decode_payload(impl_->bytes, impl_->pc);
  impl_->payload_read.fetch_add(impl_->pc.info.payload_bytes,
                                std::memory_order_relaxed);
  return words;
}

LinkSchedule SchedBinReader::read_link() const {
  LinkSchedule out = decode_link(impl_->bytes, impl_->pc);
  impl_->payload_read.fetch_add(impl_->pc.info.payload_bytes,
                                std::memory_order_relaxed);
  return out;
}

PathSchedule SchedBinReader::read_path(const DiGraph& g) const {
  const SchedBinInfo& info = impl_->pc.info;
  A2A_REQUIRE(info.kind == SchedBinKind::kPath, "not a path-schedule SchedBin");
  return path_schedule_from_words(g, decode_all(), info.num_nodes,
                                  info.chunk_unit,
                                  static_cast<std::size_t>(info.record_count));
}

std::size_t SchedBinReader::bytes_read() const {
  return impl_->overhead_bytes +
         impl_->payload_read.load(std::memory_order_relaxed);
}

std::size_t SchedBinReader::total_bytes() const { return impl_->bytes.size(); }

}  // namespace a2a
