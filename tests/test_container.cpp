// SchedBin container round trips, codecs, and integrity checks.
#include "container/schedbin.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "common/varint.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "obs/metrics.hpp"
#include "runtime/vc.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

namespace a2a {
namespace {

constexpr SchedBinCodec kAllCodecs[] = {SchedBinCodec::kRaw,
                                        SchedBinCodec::kRle,
                                        SchedBinCodec::kDelta,
                                        SchedBinCodec::kDict};

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
    // Bit-exact, unlike the XML dialect's rational snapping.
    EXPECT_EQ(a.entries[i].weight, b.entries[i].weight);
    EXPECT_EQ(a.entries[i].num_chunks, b.entries[i].num_chunks);
    EXPECT_EQ(a.entries[i].layer, b.entries[i].layer);
  }
}

/// A random (not necessarily valid) link schedule exercising negative ids,
/// large rationals, and repeated values.
LinkSchedule random_link_schedule(Rng& rng, int transfers) {
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

/// A random path schedule on `g` whose routes are real random walks, so the
/// node-sequence -> edge-id resolution on decode is exercised.
PathSchedule random_path_schedule(const DiGraph& g, Rng& rng, int routes) {
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
    e.weight = rng.next_double();
    e.num_chunks = rng.next_int(1, 64);
    e.layer = rng.next_int(0, 4);
    s.entries.push_back(std::move(e));
  }
  return s;
}

TEST(Varint, RoundTripsEdgeValues) {
  const std::int64_t values[] = {0,  1,  -1, 63, 64, -64, -65, 1'000'000,
                                 INT64_MAX, INT64_MIN, INT64_MIN + 1};
  std::string buf;
  for (const std::int64_t v : values) append_svarint(buf, v);
  std::size_t pos = 0;
  for (const std::int64_t v : values) {
    EXPECT_EQ(read_svarint(buf.data(), buf.size(), pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedInputThrows) {
  std::string buf;
  append_uvarint(buf, 1'000'000);
  std::size_t pos = 0;
  EXPECT_THROW((void)read_uvarint(buf.data(), buf.size() - 1, pos),
               InvalidArgument);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, with no
/// tables to share a mistake with the implementation under test.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t size,
                            std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  // Accumulation across buffers equals one-shot.
  const std::uint32_t partial = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, partial), 0xCBF43926u);

  // Every length 0..1100 at every start offset 0..7, so each split of a
  // buffer into 8-byte blocks and a byte tail meets every alignment.
  Rng rng(0xC0C32);
  std::vector<unsigned char> buf(1100 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len), crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Seeded chaining split at every point equals the one-shot CRC, from a
  // zero seed and from an arbitrary one.
  for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
    const std::uint32_t whole = crc32_bitwise(buf.data(), 1100, seed);
    EXPECT_EQ(crc32(buf.data(), 1100, seed), whole);
    for (std::size_t split = 0; split <= 1100; ++split) {
      const std::uint32_t head = crc32(buf.data(), split, seed);
      ASSERT_EQ(crc32(buf.data() + split, 1100 - split, head), whole)
          << "seed " << seed << " split " << split;
    }
  }
}

TEST(SchedBin, EmptyLinkScheduleRoundTripsUnderEveryCodec) {
  LinkSchedule empty;
  empty.num_nodes = 8;
  empty.num_steps = 3;
  for (const SchedBinCodec codec : kAllCodecs) {
    SchedBinOptions options;
    options.codec = codec;
    const std::string bytes = link_schedule_to_schedbin(empty, options);
    expect_link_equal(link_schedule_from_schedbin(bytes), empty);
    const SchedBinInfo info = schedbin_inspect(bytes);
    EXPECT_EQ(info.kind, SchedBinKind::kLink);
    EXPECT_EQ(info.record_count, 0u);
    EXPECT_EQ(info.num_chunks, 0u);
  }
}

TEST(SchedBin, EmptyPathScheduleRoundTripsUnderEveryCodec) {
  const DiGraph g = make_ring(4);
  PathSchedule empty;
  empty.num_nodes = 4;
  empty.chunk_unit = Rational(1, 6);
  for (const SchedBinCodec codec : kAllCodecs) {
    SchedBinOptions options;
    options.codec = codec;
    const std::string bytes = path_schedule_to_schedbin(g, empty, options);
    expect_path_equal(path_schedule_from_schedbin(g, bytes), empty);
  }
}

TEST(SchedBin, SingleTransferRoundTrips) {
  LinkSchedule s;
  s.num_nodes = 2;
  s.num_steps = 1;
  Transfer t;
  t.chunk = Chunk{0, 1, Rational(0), Rational(1)};
  t.from = 0;
  t.to = 1;
  t.step = 1;
  s.transfers.push_back(t);
  for (const SchedBinCodec codec : kAllCodecs) {
    SchedBinOptions options;
    options.codec = codec;
    expect_link_equal(
        link_schedule_from_schedbin(link_schedule_to_schedbin(s, options)), s);
  }
}

TEST(SchedBin, RandomLinkSchedulesRoundTripUnderEveryCodec) {
  Rng rng(20240731);
  for (int trial = 0; trial < 10; ++trial) {
    const LinkSchedule s = random_link_schedule(rng, rng.next_int(0, 500));
    for (const SchedBinCodec codec : kAllCodecs) {
      SchedBinOptions options;
      options.codec = codec;
      options.chunk_words = 256;  // force multiple chunks
      expect_link_equal(
          link_schedule_from_schedbin(link_schedule_to_schedbin(s, options)),
          s);
    }
  }
}

TEST(SchedBin, RandomPathSchedulesRoundTripUnderEveryCodec) {
  Rng rng(42);
  const DiGraph g = make_hypercube(4);
  for (int trial = 0; trial < 10; ++trial) {
    const PathSchedule s = random_path_schedule(g, rng, rng.next_int(0, 200));
    for (const SchedBinCodec codec : kAllCodecs) {
      SchedBinOptions options;
      options.codec = codec;
      options.chunk_words = 128;
      expect_path_equal(
          path_schedule_from_schedbin(g, path_schedule_to_schedbin(g, s, options)),
          s);
    }
  }
}

TEST(SchedBin, CompiledScheduleRoundTripsAndStillValidates) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const std::string bytes = link_schedule_to_schedbin(sched);
  const LinkSchedule parsed = link_schedule_from_schedbin(bytes);
  expect_link_equal(parsed, sched);
  EXPECT_TRUE(validate_link_schedule(g, parsed, all_nodes(g)).ok);
}

TEST(SchedBin, CompiledPathScheduleRoundTripsAndStillValidates) {
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  PathSchedule sched = compile_path_schedule(g, paths_from_link_flows(g, flows));
  assign_layers(g, sched);
  const std::string bytes = path_schedule_to_schedbin(g, sched);
  const PathSchedule parsed = path_schedule_from_schedbin(g, bytes);
  expect_path_equal(parsed, sched);
  EXPECT_TRUE(validate_path_schedule(g, parsed, all_nodes(g)).ok);
}

TEST(SchedBin, DeltaBeatsXmlOnRealSchedules) {
  const DiGraph g = make_generalized_kautz(16, 4);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  PathSchedule sched = compile_path_schedule(g, paths_from_link_flows(g, flows));
  const std::string xml = path_schedule_to_xml(g, sched);
  SchedBinOptions options;
  options.codec = SchedBinCodec::kDelta;
  const std::string bin = path_schedule_to_schedbin(g, sched, options);
  EXPECT_LT(bin.size() * 5, xml.size())
      << "schedbin=" << bin.size() << " xml=" << xml.size();
}

TEST(SchedBin, CorruptedPayloadFailsCrc) {
  Rng rng(11);
  const LinkSchedule s = random_link_schedule(rng, 100);
  std::string bytes = link_schedule_to_schedbin(s);
  ASSERT_GT(bytes.size(), 60u);
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit
  EXPECT_THROW((void)link_schedule_from_schedbin(bytes), InvalidArgument);
  EXPECT_THROW((void)schedbin_inspect(bytes), InvalidArgument);
}

TEST(SchedBin, TruncatedAndForeignBlobsRejected) {
  Rng rng(12);
  const LinkSchedule s = random_link_schedule(rng, 50);
  const std::string bytes = link_schedule_to_schedbin(s);
  EXPECT_THROW((void)link_schedule_from_schedbin(bytes.substr(0, 20)),
               InvalidArgument);
  EXPECT_THROW((void)link_schedule_from_schedbin(bytes.substr(0, bytes.size() - 3)),
               InvalidArgument);
  EXPECT_THROW((void)link_schedule_from_schedbin("not a schedbin at all"),
               InvalidArgument);
  // Kind mismatch: a link container is not a path container.
  const DiGraph g = make_ring(4);
  EXPECT_THROW((void)path_schedule_from_schedbin(g, bytes), InvalidArgument);
}

TEST(SchedBin, PathDecodeRejectsNonEdgeRoute) {
  // Encode against a hypercube, decode against a ring missing those edges.
  Rng rng(13);
  const DiGraph cube = make_hypercube(3);
  PathSchedule s = random_path_schedule(cube, rng, 40);
  ASSERT_FALSE(s.entries.empty());
  const std::string bytes = path_schedule_to_schedbin(cube, s);
  const DiGraph ring = make_ring(8);
  EXPECT_THROW((void)path_schedule_from_schedbin(ring, bytes), InvalidArgument);
}

// ---- hostile / corrupt frame hardening -------------------------------------

/// Builds a syntactically well-formed v1 link-kind container from raw
/// parts: header fields as given, one directory entry + CRC per payload.
/// The record count defaults to the one the word count implies.
std::string forge_container(SchedBinCodec codec, std::uint64_t word_count,
                            std::uint32_t chunk_words,
                            const std::vector<std::string>& payloads,
                            std::optional<std::uint64_t> record_count = {}) {
  std::string out;
  out.append(kSchedBinMagic, sizeof(kSchedBinMagic));
  binio::put_u16(out, kSchedBinVersion1);
  out.push_back(static_cast<char>(SchedBinKind::kLink));
  out.push_back(static_cast<char>(codec));
  binio::put_u32(out, 4);   // num_nodes
  binio::put_u32(out, 1);   // num_steps
  binio::put_u64(out, record_count.value_or(word_count / 9));
  binio::put_u64(out, word_count);
  binio::put_u64(out, 0);   // chunk_unit num
  binio::put_u64(out, 1);   // chunk_unit den
  binio::put_u32(out, chunk_words);
  binio::put_u32(out, static_cast<std::uint32_t>(payloads.size()));
  for (const std::string& p : payloads) {
    binio::put_u32(out, static_cast<std::uint32_t>(p.size()));
    binio::put_u32(out, crc32(p.data(), p.size()));
  }
  for (const std::string& p : payloads) out.append(p);
  return out;
}

TEST(SchedBinHardening, HugeDeclaredDecodeIsRefusedBeforeAllocation) {
  // 256 five-byte rle chunks claiming 2^24 words each: a ~1.3 KiB blob
  // whose declared decoded size is 32 GiB. The reader must refuse on the
  // decode budget — instantly, not after attempting the allocation.
  const std::uint32_t chunk_words = 1u << 24;
  std::string run;
  append_svarint(run, 0);
  append_uvarint(run, chunk_words);
  const std::vector<std::string> payloads(256, run);
  const std::string blob =
      forge_container(SchedBinCodec::kRle,
                      static_cast<std::uint64_t>(chunk_words) * 256,
                      chunk_words, payloads);
  EXPECT_LT(blob.size(), 4096u);
  EXPECT_THROW((void)schedbin_inspect(blob), InvalidArgument);
  EXPECT_THROW((void)link_schedule_from_schedbin(blob), InvalidArgument);
  // An explicit (absurd) budget lets the same container through the clamp
  // and into the ordinary decode path (which then rejects the word/record
  // mismatch) — proving the refusal above came from the budget.
  EXPECT_NO_THROW((void)schedbin_inspect(blob, 1ULL << 40));

  // A link header whose record count disagrees with its 18 words is refused
  // before the transfers are sized: 2^60 records would otherwise ask for
  // 2^60 transfers (std::length_error, not InvalidArgument). The words are
  // two transfers 0 -> 1 of [0, 1) at step 1, as rle runs.
  std::string eighteen;
  for (const auto [value, run] : {std::pair{0, 6}, {1, 6}, {0, 2}, {1, 4}}) {
    append_svarint(eighteen, value);
    append_uvarint(eighteen, static_cast<std::uint64_t>(run));
  }
  for (const std::uint64_t records : {std::uint64_t{1}, std::uint64_t{3},
                                      std::uint64_t{1} << 60}) {
    SCOPED_TRACE(records);
    const std::string lying =
        forge_container(SchedBinCodec::kRle, 18, 1024, {eighteen}, records);
    EXPECT_NO_THROW((void)schedbin_inspect(lying));
    EXPECT_THROW((void)link_schedule_from_schedbin(lying), InvalidArgument);
    EXPECT_THROW((void)SchedBinReader::from_bytes(lying).read_link(),
                 InvalidArgument);
  }
  const std::string honest =
      forge_container(SchedBinCodec::kRle, 18, 1024, {eighteen});
  EXPECT_EQ(link_schedule_from_schedbin(honest).transfers.size(), 2u);
}

TEST(SchedBinHardening, ChunkWordsAboveCeilingRejected) {
  const std::string blob = forge_container(
      SchedBinCodec::kRle, 1, 0xFFFFFFFFu, {std::string("\x00\x01", 2)});
  EXPECT_THROW((void)schedbin_inspect(blob), InvalidArgument);
  SchedBinOptions options;
  options.chunk_words = kSchedBinMaxChunkWords + 1;
  Rng rng(3);
  const LinkSchedule s = random_link_schedule(rng, 4);
  EXPECT_THROW((void)link_schedule_to_schedbin(s, options), InvalidArgument);
}

TEST(SchedBinHardening, PayloadTooSmallForDeclaredWordsRejected) {
  // Delta codec needs >= 1 byte per word; a chunk declaring 100 words from
  // a 10-byte payload is structurally corrupt and must fail in the parse,
  // before any decoder sizes its output from the header.
  std::string payload(10, '\0');  // ten valid zero svarints
  const std::string blob =
      forge_container(SchedBinCodec::kDelta, 100, 128, {payload});
  EXPECT_THROW((void)schedbin_inspect(blob), InvalidArgument);
  EXPECT_THROW((void)link_schedule_from_schedbin(blob), InvalidArgument);
}

TEST(SchedBinHardening, RawChunkSizeMustBeExact) {
  std::string payload(7 * 8 + 3, '\0');  // not a multiple of a word
  const std::string blob =
      forge_container(SchedBinCodec::kRaw, 9, 16, {payload});
  EXPECT_THROW((void)schedbin_inspect(blob), InvalidArgument);
}

TEST(SchedBinHardening, RleRunOverflowingChunkRejected) {
  // One run claiming more words than the chunk declares: the rle decoder's
  // growth clamp must throw instead of writing past the declared size.
  std::string run;
  append_svarint(run, 7);
  append_uvarint(run, 1000);  // chunk declares only 16 words
  const std::string blob = forge_container(SchedBinCodec::kRle, 16, 16, {run});
  EXPECT_THROW((void)link_schedule_from_schedbin(blob), InvalidArgument);
}

TEST(SchedBinHardening, LegitimateLargeRleStillDecodes) {
  // The clamps must not reject honest high-ratio RLE: a constant 200k-word
  // schedule compresses to a handful of runs and still round-trips.
  LinkSchedule s;
  s.num_nodes = 2;
  s.num_steps = 1;
  s.transfers.assign(20000, Transfer{{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  SchedBinOptions options;
  options.codec = SchedBinCodec::kRle;
  const std::string bytes = link_schedule_to_schedbin(s, options);
  EXPECT_LT(bytes.size(), 4096u);
  const LinkSchedule back = link_schedule_from_schedbin(bytes);
  EXPECT_EQ(back.transfers.size(), s.transfers.size());
}

TEST(SchedBin, LinkEncodeAndDecodeMoveTheCountersByOneFrame) {
  // One encode and each link decode count one call, the frame's raw,
  // encoded, payload and decoded bytes, and one latency sample each.
  Rng rng(16);
  const LinkSchedule s = random_link_schedule(rng, 300);
  SchedBinOptions options;
  options.codec = SchedBinCodec::kDict;
  options.chunk_words = 1000;  // 3 chunks, cut inside columns
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };
  const auto samples = [&](const char* name) {
    return registry.histogram(name).count();
  };
  const std::uint64_t words_bytes = 9 * 300 * 8;

  const std::uint64_t encode_calls = counter("schedbin.encode.calls");
  const std::uint64_t raw = counter("schedbin.encode.raw_bytes");
  const std::uint64_t encoded = counter("schedbin.encode.encoded_bytes");
  const std::uint64_t encode_samples = samples("schedbin.encode.seconds");
  const std::string bytes = link_schedule_to_schedbin(s, options);
  EXPECT_EQ(counter("schedbin.encode.calls") - encode_calls, 1u);
  EXPECT_EQ(counter("schedbin.encode.raw_bytes") - raw, words_bytes);
  EXPECT_EQ(counter("schedbin.encode.encoded_bytes") - encoded, bytes.size());
  EXPECT_EQ(samples("schedbin.encode.seconds") - encode_samples, 1u);

  const std::size_t payload = schedbin_inspect(bytes).payload_bytes;
  const auto expect_one_decode = [&](const auto& decode) {
    const std::uint64_t calls = counter("schedbin.decode.calls");
    const std::uint64_t payload_bytes = counter("schedbin.decode.payload_bytes");
    const std::uint64_t decoded = counter("schedbin.decode.decoded_bytes");
    const std::uint64_t decode_samples = samples("schedbin.decode.seconds");
    expect_link_equal(decode(), s);
    EXPECT_EQ(counter("schedbin.decode.calls") - calls, 1u);
    EXPECT_EQ(counter("schedbin.decode.payload_bytes") - payload_bytes, payload);
    EXPECT_EQ(counter("schedbin.decode.decoded_bytes") - decoded, words_bytes);
    EXPECT_EQ(samples("schedbin.decode.seconds") - decode_samples, 1u);
  };
  expect_one_decode([&] { return link_schedule_from_schedbin(bytes); });
  expect_one_decode([&] { return SchedBinReader::from_bytes(bytes).read_link(); });
}

TEST(SchedBin, InspectReportsGeometry) {
  Rng rng(14);
  const LinkSchedule s = random_link_schedule(rng, 300);
  SchedBinOptions options;
  options.codec = SchedBinCodec::kRle;
  options.chunk_words = 512;
  const std::string bytes = link_schedule_to_schedbin(s, options);
  const SchedBinInfo info = schedbin_inspect(bytes);
  EXPECT_EQ(info.version, kSchedBinVersion2);
  EXPECT_EQ(info.kind, SchedBinKind::kLink);
  EXPECT_EQ(info.codec, SchedBinCodec::kRle);
  EXPECT_EQ(info.num_nodes, s.num_nodes);
  EXPECT_EQ(info.num_steps, s.num_steps);
  EXPECT_EQ(info.record_count, s.transfers.size());
  EXPECT_EQ(info.word_count, s.transfers.size() * 9);
  EXPECT_EQ(info.num_chunks, (info.word_count + 511) / 512);
  EXPECT_EQ(info.total_bytes, bytes.size());
}

}  // namespace
}  // namespace a2a
