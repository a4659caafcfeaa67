// SchedBin — a chunked, integrity-checked binary container for schedules.
//
// The XML dialects of §4 are the lowering interchange format, but at
// production scale (many topologies × fabrics × chunking grids, served to
// many consumers) they are too large and too slow to parse. SchedBin stores
// the same schedules as a compact little-endian artifact, modeled on the
// chunked-frame design of Blosc2: a fixed header and independently
// compressed chunks, each guarded by a CRC-32, so a reader decodes only the
// chunks it needs. Encode and decode walk the chunks on the calling thread.
// A link schedule's words never exist as one whole-frame array: encode
// gathers them from the transfers one chunk at a time, and decode fills the
// transfers a block of rows at a time from at most one chunk per column.
//
// Format v1 layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "SBIN"
//   4       2     version (1)
//   6       1     kind           (1 = link schedule, 2 = path schedule)
//   7       1     codec id       (see SchedBinCodec)
//   8       4     num_nodes
//   12      4     num_steps      (link) / 0 (path)
//   16      8     record_count   (transfers / route entries)
//   24      8     word_count     (total int64 words in the payload stream)
//   32      8     chunk_unit num (path) / 0 (link)
//   40      8     chunk_unit den (path) / 1 (link)
//   48      4     chunk_words    (words per chunk; last chunk may be short)
//   52      4     num_chunks
//   56      -     directory: num_chunks × { u32 compressed_bytes, u32 crc32 }
//   ...     -     compressed chunk payloads, concatenated in order
//
// Format v2 moves the chunk directory into a CRC-guarded *trailer* with
// absolute offsets (Blosc2 cframe style), so a reader can open a file,
// validate the trailer, and decode individual chunks on demand — the mmap
// read path touches only the header page, the trailer pages and the pages
// of the chunks it decodes. v2 also adds a per-frame dictionary (the dict
// codec), per-chunk codec ids (dict falls back per chunk to rle/delta/raw
// when it loses), and free-form metadata key/value pairs that survive codec
// conversion:
//
//   [0, 56)   header: v1 field layout with version = 2
//   [56, ...) compressed chunk payloads, concatenated in order
//   trailer:  dict block  — uvarint count, count × svarint word
//             meta block  — uvarint pairs, pairs × { uvarint klen, key,
//                           uvarint vlen, value }
//             directory   — num_chunks × { u64 absolute_offset,
//                           u32 compressed_bytes, u32 crc32, u8 codec }
//   footer (24 bytes):
//             u64 trailer_offset   (absolute start of the trailer)
//             u32 trailer_bytes    (dict + meta + directory)
//             u32 trailer_crc32
//             u32 header_crc32     (over bytes [0, 56))
//             magic "SBTR"
//
// The payload stream is the columnar flattening of columnar.hpp. Chunks are
// fixed word-count slices of that stream, so decode offsets are computable
// from the directory alone and every chunk decodes independently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "container/codec.hpp"
#include "graph/digraph.hpp"
#include "schedule/schedule.hpp"

namespace a2a {

inline constexpr char kSchedBinMagic[4] = {'S', 'B', 'I', 'N'};
inline constexpr char kSchedBinTrailerMagic[4] = {'S', 'B', 'T', 'R'};
inline constexpr std::uint16_t kSchedBinVersion1 = 1;
inline constexpr std::uint16_t kSchedBinVersion2 = 2;

enum class SchedBinKind : std::uint8_t { kLink = 1, kPath = 2 };

/// Hard ceiling on words per chunk (128 MiB raw). Far above any schedule the
/// toolchain emits; headers claiming more are corrupt or hostile, and
/// rejecting them bounds the per-chunk decode buffers a blob can demand.
inline constexpr std::uint32_t kSchedBinMaxChunkWords = 1u << 24;

/// Default ceiling on the DECODED payload size (1 GiB) the readers will
/// allocate for one container. The v1 word count is a header field that is
/// not covered by any CRC (v2 CRCs the header, but a forged frame can CRC
/// its own lies), so without this clamp a small hostile blob could declare
/// a multi-terabyte payload and drive the decoder into a wild allocation
/// before any chunk is even touched. Callers with genuinely larger
/// artifacts pass an explicit budget.
inline constexpr std::uint64_t kSchedBinDefaultDecodeBudget = 1ULL << 30;

/// Ceilings on v2 trailer metadata: enough for provenance stamps, small
/// enough that a forged trailer cannot demand unbounded string allocations.
inline constexpr std::size_t kSchedBinMaxMetaPairs = 64;
inline constexpr std::size_t kSchedBinMaxMetaKeyBytes = 256;
inline constexpr std::size_t kSchedBinMaxMetaValueBytes = 4096;

using SchedBinMetadata = std::vector<std::pair<std::string, std::string>>;

struct SchedBinOptions {
  SchedBinCodec codec = SchedBinCodec::kDelta;
  /// Container format version to write. v2 (trailer directory, dict codec,
  /// metadata, mmap chunk reads) is the default; v1 is kept for fleets with
  /// older readers and writes byte-identical frames to PR 1.
  std::uint16_t version = kSchedBinVersion2;
  /// Words per chunk. The default (64Ki words = 512 KiB raw) keeps chunk
  /// count low for small schedules while a mmap reader of a large one still
  /// decodes a chunk without touching the rest.
  std::uint32_t chunk_words = 64 * 1024;
  /// Free-form provenance stamps written into the v2 trailer (v1 frames
  /// cannot carry metadata; writing v1 with metadata is an error).
  SchedBinMetadata metadata;
};

/// Parsed header + derived facts, for tooling (`schedgen --inspect`) and
/// cache validation without a full decode.
struct SchedBinInfo {
  std::uint16_t version = 0;
  SchedBinKind kind = SchedBinKind::kLink;
  SchedBinCodec codec = SchedBinCodec::kRaw;
  int num_nodes = 0;
  int num_steps = 0;          ///< link only.
  Rational chunk_unit{0};     ///< path only.
  std::uint64_t record_count = 0;
  std::uint64_t word_count = 0;
  std::uint32_t chunk_words = 0;
  std::uint32_t num_chunks = 0;
  std::size_t total_bytes = 0;       ///< whole container.
  std::size_t payload_bytes = 0;     ///< compressed chunks only.
  std::size_t trailer_bytes = 0;     ///< v2 trailer section (0 for v1).
  std::size_t dict_words = 0;        ///< frame dictionary entries (v2).
  SchedBinMetadata metadata;         ///< v2 trailer metadata (empty for v1).
};

[[nodiscard]] std::string link_schedule_to_schedbin(
    const LinkSchedule& schedule, const SchedBinOptions& options = {});

[[nodiscard]] LinkSchedule link_schedule_from_schedbin(
    std::string_view bytes,
    std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

[[nodiscard]] std::string path_schedule_to_schedbin(
    const DiGraph& g, const PathSchedule& schedule,
    const SchedBinOptions& options = {});

[[nodiscard]] PathSchedule path_schedule_from_schedbin(
    const DiGraph& g, std::string_view bytes,
    std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

/// Validates magic/version/structure and every chunk CRC without decoding.
/// Throws InvalidArgument on any corruption.
[[nodiscard]] SchedBinInfo schedbin_inspect(
    std::string_view bytes,
    std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

/// Losslessly re-encodes a container under new codec/version/chunking:
/// decodes the payload word stream and re-frames it, copying every header
/// field (kind, nodes, steps, chunk_unit, record count) from the source.
/// Source metadata is carried through unless `options.metadata` is
/// non-empty (explicit stamps win); converting to v1 silently drops it —
/// v1 frames cannot carry metadata by design. Works on both schedule kinds
/// without a topology: the word stream is transcoded as-is.
[[nodiscard]] std::string schedbin_convert(
    std::string_view bytes, SchedBinOptions options,
    std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

/// Zero-copy random-access reader over a SchedBin container (v1 or v2).
/// Opening parses and validates the header + directory (and v2 trailer)
/// only; chunk payloads are CRC-checked and decoded on demand, so an
/// mmap-backed reader touches just the pages of the chunks it serves.
/// bytes_read() exposes how many container bytes were actually consumed —
/// tests assert single-chunk decodes stay far below the file size.
class SchedBinReader {
 public:
  /// mmap-backed reader. The mapping lives as long as the reader.
  [[nodiscard]] static SchedBinReader open_file(
      const std::string& path,
      std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

  /// Non-owning reader over caller-held bytes (must outlive the reader).
  [[nodiscard]] static SchedBinReader from_bytes(
      std::string_view bytes,
      std::uint64_t max_decoded_bytes = kSchedBinDefaultDecodeBudget);

  ~SchedBinReader();
  SchedBinReader(SchedBinReader&&) noexcept;
  SchedBinReader& operator=(SchedBinReader&&) noexcept;
  SchedBinReader(const SchedBinReader&) = delete;
  SchedBinReader& operator=(const SchedBinReader&) = delete;

  [[nodiscard]] const SchedBinInfo& info() const;
  [[nodiscard]] std::uint32_t num_chunks() const;

  /// Words chunk `c` decodes to (the last chunk may be short).
  [[nodiscard]] std::size_t chunk_word_count(std::uint32_t c) const;

  struct ChunkEntry {
    std::size_t offset = 0;  ///< absolute byte offset in the container.
    std::uint32_t size = 0;
    std::uint32_t crc32 = 0;
    SchedBinCodec codec = SchedBinCodec::kRaw;
  };
  [[nodiscard]] ChunkEntry chunk_entry(std::uint32_t c) const;

  /// CRC-checks and decodes chunk `c` into `out` (resized to the chunk's
  /// word count). Returns the word count. Only this chunk's payload bytes
  /// are touched.
  std::size_t decode_chunk(std::uint32_t c, std::vector<std::int64_t>& out) const;

  /// Decodes the whole payload, chunk by chunk.
  [[nodiscard]] std::vector<std::int64_t> decode_all() const;

  [[nodiscard]] LinkSchedule read_link() const;
  [[nodiscard]] PathSchedule read_path(const DiGraph& g) const;

  /// Container bytes consumed so far: the header/directory/trailer overhead
  /// plus every chunk payload decoded through this reader.
  [[nodiscard]] std::size_t bytes_read() const;
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  struct Impl;
  explicit SchedBinReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace a2a
