// SchedBin v2: property-based round trips for every codec/version, mmap
// zero-copy chunk reads, trailer metadata, lossless conversion, the streamed
// link path against its whole-array oracle, and the golden corpus pinning
// the wire format byte-for-byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/mmap_file.hpp"
#include "common/random.hpp"
#include "container/schedbin.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "reference/schedbin_reference.hpp"
#include "schedbin_corpus.hpp"

#ifndef A2A_SOURCE_DIR
#define A2A_SOURCE_DIR "."
#endif

namespace a2a {
namespace {

namespace fs = std::filesystem;

using corpus::random_link_schedule;
using corpus::random_path_schedule;

constexpr SchedBinCodec kV2Codecs[] = {SchedBinCodec::kRaw, SchedBinCodec::kRle,
                                       SchedBinCodec::kDelta,
                                       SchedBinCodec::kDict};

std::vector<SchedBinCodec> codecs_for(std::uint16_t version) {
  if (version == kSchedBinVersion1) {
    return {SchedBinCodec::kRaw, SchedBinCodec::kRle, SchedBinCodec::kDelta};
  }
  return {SchedBinCodec::kRaw, SchedBinCodec::kRle, SchedBinCodec::kDelta,
          SchedBinCodec::kDict};
}

void expect_link_equal(const LinkSchedule& a, const LinkSchedule& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_steps, b.num_steps);
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].chunk, b.transfers[i].chunk);
    EXPECT_EQ(a.transfers[i].from, b.transfers[i].from);
    EXPECT_EQ(a.transfers[i].to, b.transfers[i].to);
    EXPECT_EQ(a.transfers[i].step, b.transfers[i].step);
  }
}

void expect_path_equal(const PathSchedule& a, const PathSchedule& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.chunk_unit, b.chunk_unit);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].src, b.entries[i].src);
    EXPECT_EQ(a.entries[i].dst, b.entries[i].dst);
    EXPECT_EQ(a.entries[i].path, b.entries[i].path);
    EXPECT_EQ(a.entries[i].weight, b.entries[i].weight);
    EXPECT_EQ(a.entries[i].num_chunks, b.entries[i].num_chunks);
    EXPECT_EQ(a.entries[i].layer, b.entries[i].layer);
  }
}

struct TempFile {
  fs::path path;
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++) + ".schedbin");
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
  void write(std::string_view bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
};

// ---- property: encode -> decode == identity, every codec, both versions ---

TEST(SchedBinV2, RandomLinkSchedulesRoundTripEveryCodecAndVersion) {
  Rng rng(20260730);
  for (int trial = 0; trial < 8; ++trial) {
    const LinkSchedule s = random_link_schedule(rng, rng.next_int(0, 600));
    for (const std::uint16_t version : {kSchedBinVersion1, kSchedBinVersion2}) {
      for (const SchedBinCodec codec :
           codecs_for(version)) {
        SchedBinOptions options;
        options.version = version;
        options.codec = codec;
        // Vary the chunk geometry: single-chunk up to many tiny chunks.
        options.chunk_words = trial % 2 == 0 ? 128 : 64 * 1024;
        const std::string bytes = link_schedule_to_schedbin(s, options);
        expect_link_equal(link_schedule_from_schedbin(bytes), s);
        EXPECT_EQ(schedbin_inspect(bytes).version, version);
      }
    }
  }
}

TEST(SchedBinV2, RandomPathSchedulesRoundTripEveryCodecAndVersion) {
  Rng rng(77);
  const DiGraph g = make_hypercube(4);
  for (int trial = 0; trial < 8; ++trial) {
    const PathSchedule s = random_path_schedule(g, rng, rng.next_int(0, 250));
    for (const std::uint16_t version : {kSchedBinVersion1, kSchedBinVersion2}) {
      for (const SchedBinCodec codec :
           codecs_for(version)) {
        SchedBinOptions options;
        options.version = version;
        options.codec = codec;
        options.chunk_words = 64 << (trial % 4);
        expect_path_equal(
            path_schedule_from_schedbin(
                g, path_schedule_to_schedbin(g, s, options)),
            s);
      }
    }
  }
}

TEST(SchedBinV2, PathologicalAllSameRoundTrips) {
  LinkSchedule s;
  s.num_nodes = 2;
  s.num_steps = 1;
  s.transfers.assign(50000,
                     Transfer{{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  for (const SchedBinCodec codec : kV2Codecs) {
    SchedBinOptions options;
    options.codec = codec;
    options.chunk_words = 4096;
    const std::string bytes = link_schedule_to_schedbin(s, options);
    expect_link_equal(link_schedule_from_schedbin(bytes), s);
  }
}

TEST(SchedBinV2, PathologicalAllDistinctRoundTrips) {
  // Every word distinct (and large): the dictionary must come out empty and
  // every chunk must fall back — still an identity round trip.
  LinkSchedule s;
  s.num_nodes = 1000000;
  s.num_steps = 1000000;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    Transfer t;
    t.chunk.src = static_cast<NodeId>(rng.next_u64() >> 32);
    t.chunk.dst = static_cast<NodeId>(rng.next_u64() >> 32);
    t.chunk.lo = Rational(static_cast<std::int64_t>(rng.next_u64() >> 16), 1);
    t.chunk.hi = Rational(static_cast<std::int64_t>(rng.next_u64() >> 16), 3);
    t.from = static_cast<NodeId>(rng.next_u64() >> 32);
    t.to = static_cast<NodeId>(rng.next_u64() >> 32);
    t.step = static_cast<int>(rng.next_u64() >> 40);
    s.transfers.push_back(t);
  }
  std::size_t delta_size = 0;
  for (const SchedBinCodec codec : kV2Codecs) {
    SchedBinOptions options;
    options.codec = codec;
    options.chunk_words = 2048;
    const std::string bytes = link_schedule_to_schedbin(s, options);
    expect_link_equal(link_schedule_from_schedbin(bytes), s);
    if (codec == SchedBinCodec::kDelta) delta_size = bytes.size();
    if (codec == SchedBinCodec::kDict) {
      const SchedBinReader reader = SchedBinReader::from_bytes(bytes);
      // Only the rational-denominator constants repeat; the dictionary must
      // stay tiny, not balloon with one-shot values.
      EXPECT_LE(reader.info().dict_words, 8u);
      // Chunks 0 and 1 cover the src column — genuinely all-distinct words
      // — and must fall back instead of paying dict literal overhead.
      // (Later chunks holding constant denominator runs may keep the dict
      // label when they tie with rle; ties are fine, regressions are not.)
      EXPECT_NE(reader.chunk_entry(0).codec, SchedBinCodec::kDict);
      EXPECT_NE(reader.chunk_entry(1).codec, SchedBinCodec::kDict);
      // The per-chunk fallback bounds the frame: never worse than delta
      // plus the (tiny) trailer dictionary.
      EXPECT_LE(bytes.size(), delta_size + 128);
    }
  }
}

TEST(SchedBinV2, EmptyFramesRoundTripEveryCodec) {
  LinkSchedule empty;
  empty.num_nodes = 8;
  empty.num_steps = 3;
  const DiGraph ring = make_ring(4);
  PathSchedule empty_path;
  empty_path.num_nodes = 4;
  empty_path.chunk_unit = Rational(1, 6);
  for (const SchedBinCodec codec : kV2Codecs) {
    SchedBinOptions options;
    options.codec = codec;
    const std::string link_bytes = link_schedule_to_schedbin(empty, options);
    expect_link_equal(link_schedule_from_schedbin(link_bytes), empty);
    const SchedBinInfo info = schedbin_inspect(link_bytes);
    EXPECT_EQ(info.num_chunks, 0u);
    EXPECT_EQ(info.version, kSchedBinVersion2);
    expect_path_equal(
        path_schedule_from_schedbin(
            ring, path_schedule_to_schedbin(ring, empty_path, options)),
        empty_path);
  }
}

// ---- mmap zero-copy reads -------------------------------------------------

TEST(SchedBinV2, MmapChunkAtATimeEqualsFullDecode) {
  Rng rng(9);
  const LinkSchedule s = random_link_schedule(rng, 3000);
  for (const SchedBinCodec codec : kV2Codecs) {
    SchedBinOptions options;
    options.codec = codec;
    options.chunk_words = 1024;
    const std::string bytes = link_schedule_to_schedbin(s, options);
    const TempFile file("a2a_mmap_eq");
    file.write(bytes);

    const SchedBinReader reader = SchedBinReader::open_file(file.path.string());
    ASSERT_GT(reader.num_chunks(), 4u);
    std::vector<std::int64_t> concat;
    std::vector<std::int64_t> chunk;
    for (std::uint32_t c = 0; c < reader.num_chunks(); ++c) {
      reader.decode_chunk(c, chunk);
      concat.insert(concat.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(concat, reader.decode_all());
    expect_link_equal(reader.read_link(), s);
  }
}

TEST(SchedBinV2, MmapSingleChunkReadTouchesOnlyThatChunk) {
  Rng rng(10);
  const LinkSchedule s = random_link_schedule(rng, 5000);
  SchedBinOptions options;
  options.codec = SchedBinCodec::kDelta;
  options.chunk_words = 512;
  const std::string bytes = link_schedule_to_schedbin(s, options);
  const TempFile file("a2a_mmap_single");
  file.write(bytes);

  const SchedBinReader reader = SchedBinReader::open_file(file.path.string());
  ASSERT_GT(reader.num_chunks(), 8u);
  const std::size_t after_open = reader.bytes_read();
  const SchedBinInfo& info = reader.info();
  // Opening reads only header + trailer + footer, not the payload.
  EXPECT_EQ(after_open, info.total_bytes - info.payload_bytes);
  EXPECT_LT(after_open, info.total_bytes / 4);

  std::vector<std::int64_t> chunk;
  reader.decode_chunk(3, chunk);
  EXPECT_EQ(reader.bytes_read(), after_open + reader.chunk_entry(3).size);
  // The byte-read counter proves a single-chunk decode did not slurp the
  // container: everything else stayed untouched.
  EXPECT_LT(reader.bytes_read(), info.total_bytes / 2);
}

TEST(SchedBinV2, MmapReaderServesV1Containers) {
  Rng rng(11);
  const LinkSchedule s = random_link_schedule(rng, 1500);
  SchedBinOptions options;
  options.version = kSchedBinVersion1;
  options.codec = SchedBinCodec::kRle;
  options.chunk_words = 256;
  const std::string bytes = link_schedule_to_schedbin(s, options);
  const TempFile file("a2a_mmap_v1");
  file.write(bytes);
  const SchedBinReader reader = SchedBinReader::open_file(file.path.string());
  EXPECT_EQ(reader.info().version, kSchedBinVersion1);
  expect_link_equal(reader.read_link(), s);
  std::vector<std::int64_t> chunk;
  EXPECT_GT(reader.decode_chunk(0, chunk), 0u);
}

TEST(SchedBinV2, ReaderRejectsBadChunkIndexAndWrongKind) {
  Rng rng(12);
  const LinkSchedule s = random_link_schedule(rng, 100);
  const std::string bytes = link_schedule_to_schedbin(s);
  const SchedBinReader reader = SchedBinReader::from_bytes(bytes);
  std::vector<std::int64_t> chunk;
  EXPECT_THROW((void)reader.decode_chunk(reader.num_chunks(), chunk),
               InvalidArgument);
  const DiGraph ring = make_ring(4);
  EXPECT_THROW((void)reader.read_path(ring), InvalidArgument);
}

// ---- trailer metadata -----------------------------------------------------

TEST(SchedBinV2, MetadataRoundTrips) {
  Rng rng(13);
  const LinkSchedule s = random_link_schedule(rng, 50);
  SchedBinOptions options;
  options.metadata = {{"generator", "test"}, {"k", std::string(4096, 'v')}};
  const std::string bytes = link_schedule_to_schedbin(s, options);
  const SchedBinInfo info = schedbin_inspect(bytes);
  EXPECT_EQ(info.metadata, options.metadata);
  // v1 frames cannot carry metadata.
  options.version = kSchedBinVersion1;
  EXPECT_THROW((void)link_schedule_to_schedbin(s, options), InvalidArgument);
}

TEST(SchedBinV2, MetadataLimitsEnforcedOnWrite) {
  Rng rng(14);
  const LinkSchedule s = random_link_schedule(rng, 10);
  SchedBinOptions options;
  options.metadata = {{"", "empty key"}};
  EXPECT_THROW((void)link_schedule_to_schedbin(s, options), InvalidArgument);
  options.metadata = {{"k", std::string(4097, 'v')}};
  EXPECT_THROW((void)link_schedule_to_schedbin(s, options), InvalidArgument);
  options.metadata.assign(65, {"k", "v"});
  EXPECT_THROW((void)link_schedule_to_schedbin(s, options), InvalidArgument);
}

// ---- v2 integrity ---------------------------------------------------------

TEST(SchedBinV2, CorruptHeaderTrailerOrFooterRejected) {
  Rng rng(15);
  const LinkSchedule s = random_link_schedule(rng, 400);
  SchedBinOptions options;
  options.chunk_words = 256;
  const std::string bytes = link_schedule_to_schedbin(s, options);

  // Header bit flip: caught by the v2 header CRC (field 10 is inside
  // record_count, which no v1-style structural check would notice).
  std::string bad = bytes;
  bad[20] = static_cast<char>(bad[20] ^ 0x10);
  EXPECT_THROW((void)schedbin_inspect(bad), InvalidArgument);

  // Trailer bit flip: caught by the trailer CRC.
  bad = bytes;
  bad[bytes.size() - 30] = static_cast<char>(bad[bytes.size() - 30] ^ 0x01);
  EXPECT_THROW((void)schedbin_inspect(bad), InvalidArgument);

  // Footer magic gone.
  bad = bytes;
  bad[bytes.size() - 1] = 'X';
  EXPECT_THROW((void)schedbin_inspect(bad), InvalidArgument);

  // Truncations at every structural boundary.
  EXPECT_THROW((void)schedbin_inspect(bytes.substr(0, 40)), InvalidArgument);
  EXPECT_THROW((void)schedbin_inspect(bytes.substr(0, 60)), InvalidArgument);
  EXPECT_THROW((void)schedbin_inspect(bytes.substr(0, bytes.size() - 7)),
               InvalidArgument);
}

// ---- lossless conversion --------------------------------------------------

TEST(SchedBinV2, ConvertPreservesScheduleAndMetadata) {
  Rng rng(16);
  const LinkSchedule s = random_link_schedule(rng, 800);
  SchedBinOptions v1;
  v1.version = kSchedBinVersion1;
  v1.codec = SchedBinCodec::kDelta;
  v1.chunk_words = 256;
  const std::string v1_bytes = link_schedule_to_schedbin(s, v1);

  // v1 -> v2 dict: schedule identical, still no metadata to carry.
  SchedBinOptions up;
  up.codec = SchedBinCodec::kDict;
  up.metadata = {{"pipeline_invocation", "42"}};
  const std::string v2_bytes = schedbin_convert(v1_bytes, up);
  expect_link_equal(link_schedule_from_schedbin(v2_bytes), s);
  EXPECT_EQ(schedbin_inspect(v2_bytes).metadata, up.metadata);

  // v2 -> v2 codec change: metadata rides along without being re-stamped.
  SchedBinOptions recode;
  recode.codec = SchedBinCodec::kRle;
  const std::string rle_bytes = schedbin_convert(v2_bytes, recode);
  const SchedBinInfo rle_info = schedbin_inspect(rle_bytes);
  EXPECT_EQ(rle_info.codec, SchedBinCodec::kRle);
  EXPECT_EQ(rle_info.metadata, up.metadata)
      << "conversion must carry the source frame's metadata, not re-derive it";
  expect_link_equal(link_schedule_from_schedbin(rle_bytes), s);

  // v2 -> v1: down-level loses the trailer (and with it the metadata), but
  // the schedule and header fields survive; converting back up round-trips.
  SchedBinOptions down;
  down.version = kSchedBinVersion1;
  down.codec = SchedBinCodec::kRle;
  const std::string down_bytes = schedbin_convert(rle_bytes, down);
  EXPECT_EQ(schedbin_inspect(down_bytes).version, kSchedBinVersion1);
  expect_link_equal(link_schedule_from_schedbin(down_bytes), s);
  // Identical geometry + codec as the original direct v1 encode: the
  // conversion chain is lossless down to the byte level.
  EXPECT_EQ(schedbin_convert(down_bytes, v1), v1_bytes);
}

TEST(SchedBinV2, ConvertPathFramesWithoutTopology) {
  // Conversion transcodes the word stream: no DiGraph needed even for path
  // frames, and the route node sequences survive untouched.
  const DiGraph g = make_hypercube(3);
  Rng rng(17);
  const PathSchedule s = random_path_schedule(g, rng, 120);
  SchedBinOptions v1;
  v1.version = kSchedBinVersion1;
  v1.codec = SchedBinCodec::kRle;
  const std::string v1_bytes = path_schedule_to_schedbin(g, s, v1);
  SchedBinOptions up;
  up.codec = SchedBinCodec::kDict;
  const std::string v2_bytes = schedbin_convert(v1_bytes, up);
  expect_path_equal(path_schedule_from_schedbin(g, v2_bytes), s);
  const SchedBinInfo info = schedbin_inspect(v2_bytes);
  EXPECT_EQ(info.kind, SchedBinKind::kPath);
  EXPECT_EQ(info.chunk_unit, s.chunk_unit);
}

// ---- dict codec effectiveness --------------------------------------------

TEST(SchedBinV2, DictBeatsRleAndDeltaOnRepetitivePathSchedules) {
  // Fig. 4-style path schedule from the real pipeline: route weights and
  // node ids repeat heavily across chunks — exactly the dict codec's prey.
  const DiGraph g = make_generalized_kautz(16, 4);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  PathSchedule sched = compile_path_schedule(g, paths_from_link_flows(g, flows));
  std::size_t size_by_codec[4] = {0, 0, 0, 0};
  for (const SchedBinCodec codec : kV2Codecs) {
    SchedBinOptions options;
    options.codec = codec;
    options.chunk_words = 1024;  // several chunks, dictionary shared across
    size_by_codec[static_cast<int>(codec)] =
        path_schedule_to_schedbin(g, sched, options).size();
  }
  const std::size_t dict = size_by_codec[static_cast<int>(SchedBinCodec::kDict)];
  EXPECT_LT(dict, size_by_codec[static_cast<int>(SchedBinCodec::kRle)]);
  EXPECT_LT(dict, size_by_codec[static_cast<int>(SchedBinCodec::kDelta)]);
  EXPECT_LT(dict, size_by_codec[static_cast<int>(SchedBinCodec::kRaw)]);
}

// ---- streamed link frames vs the whole-array oracle -----------------------

/// Encodes `s` under every version × codec × chunk size (including cuts
/// inside a column, on a column boundary and at one chunk): the streamed
/// encoder must write the oracle's bytes, and the streamed decoders must
/// read back what the oracle's decode does.
void expect_streamed_link_matches_oracle(const LinkSchedule& s) {
  const std::size_t t = s.transfers.size();
  std::set<std::size_t> sizes = {1, 7, 9, 64 * 1024, t, t - 1, 9 * t,
                                 9 * t - 1};
  sizes.erase(0);
  sizes.erase(static_cast<std::size_t>(-1));
  for (const std::uint16_t version : {kSchedBinVersion1, kSchedBinVersion2}) {
    for (const SchedBinCodec codec : codecs_for(version)) {
      for (const std::size_t chunk_words : sizes) {
        SCOPED_TRACE(::testing::Message()
                     << t << " transfers, v" << version << " "
                     << codec_name(codec) << ", chunk_words " << chunk_words);
        SchedBinOptions options;
        options.version = version;
        options.codec = codec;
        options.chunk_words = static_cast<std::uint32_t>(chunk_words);
        const std::string bytes = link_schedule_to_schedbin(s, options);
        ASSERT_EQ(bytes, link_schedule_to_schedbin_reference(s, options));
        const LinkSchedule oracle = link_schedule_from_schedbin_reference(bytes);
        expect_link_equal(link_schedule_from_schedbin(bytes), oracle);
        expect_link_equal(SchedBinReader::from_bytes(bytes).read_link(), oracle);
        expect_link_equal(oracle, s);
      }
    }
  }
}

TEST(SchedBinStream, RandomLinkSchedulesMatchTheWholeArrayOracle) {
  Rng rng(71);
  for (const int t : {0, 1, 300}) {
    expect_streamed_link_matches_oracle(random_link_schedule(rng, t));
  }
  // Runs in the step and src columns, cut by most of the chunk sizes above.
  LinkSchedule sorted = random_link_schedule(rng, 297);
  corpus::sort_in_compile_order(sorted);
  expect_streamed_link_matches_oracle(sorted);
}

TEST(SchedBinStream, DictionaryCountsARunCutByAChunkBoundaryOnce) {
  // Four identical transfers: nine column runs of four words each, and
  // 3-word chunks cut every one of them. Only 5 (src and from) and 3 (both
  // denominators) recur as runs, so the dictionary holds exactly those two;
  // counting each cut run once per chunk would admit all seven values.
  LinkSchedule s;
  s.num_nodes = 8;
  s.num_steps = 9;
  s.transfers.assign(4, Transfer{{5, 6, Rational(1, 3), Rational(2, 3)}, 5, 7, 9});
  SchedBinOptions options;
  options.codec = SchedBinCodec::kDict;
  options.chunk_words = 3;
  const std::string bytes = link_schedule_to_schedbin(s, options);
  EXPECT_EQ(bytes, link_schedule_to_schedbin_reference(s, options));
  EXPECT_EQ(schedbin_inspect(bytes).dict_words, 2u);
  expect_streamed_link_matches_oracle(s);
}

// ---- golden corpus --------------------------------------------------------

TEST(SchedBinV2, CorpusFilesAreByteStableAndDecode) {
  const fs::path dir = fs::path(A2A_SOURCE_DIR) / "tests" / "corpus" / "schedbin";
  const bool update = std::getenv("A2A_UPDATE_CORPUS") != nullptr;
  for (const auto& frame : corpus::corpus_frames()) {
    const fs::path file = dir / frame.name;
    if (update) {
      fs::create_directories(dir);
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(frame.bytes.data(),
                static_cast<std::streamsize>(frame.bytes.size()));
      continue;
    }
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing corpus seed " << file
                           << " (regenerate with A2A_UPDATE_CORPUS=1)";
    std::string on_disk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    // Byte-for-byte: a writer change that alters the wire format must be a
    // deliberate version bump, not an accident — and v1 seeds double as the
    // "old fleet artifacts still decode unchanged under v2 readers" proof.
    EXPECT_EQ(on_disk, frame.bytes) << frame.name << " drifted";
    EXPECT_NO_THROW((void)schedbin_inspect(on_disk)) << frame.name;
  }
}

}  // namespace
}  // namespace a2a
