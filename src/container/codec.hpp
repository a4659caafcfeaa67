// Pluggable word codecs for the SchedBin container.
//
// A schedule is flattened into a column-major stream of int64 "words"
// (src column, dst column, step column, ...). Transfer records are highly
// repetitive — sorted src columns are long runs, step columns are almost
// monotone — so run-length and delta coding shrink them dramatically. The
// dict codec adds a per-frame dictionary of repeated words (route weights,
// rational denominators, hot node ids recur across chunks) so that a
// repeated 8-to-10-byte value costs 1–3 bytes per occurrence. Each codec
// maps a span of words to bytes and back; chunking and checksumming live one
// layer up in schedbin.cpp, which walks the chunks on the calling thread.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace a2a {

enum class SchedBinCodec : std::uint8_t {
  kRaw = 0,    ///< little-endian 8 bytes per word.
  kRle = 1,    ///< (zigzag-varint value, varint run-length) pairs.
  kDelta = 2,  ///< zigzag-varint of successive differences.
  kDict = 3,   ///< per-frame dictionary tokens + runs (v2 frames only).
};

/// Hard ceiling on dictionary entries. Tokens stay <= 3 varint bytes and a
/// hostile trailer cannot demand an unbounded dictionary allocation.
inline constexpr std::size_t kSchedBinMaxDictEntries = 65535;

[[nodiscard]] const char* codec_name(SchedBinCodec codec);

/// Parses "raw" | "rle" | "delta" | "dict". Throws InvalidArgument on
/// anything else.
[[nodiscard]] SchedBinCodec codec_from_name(const std::string& name);

/// Non-owning view of a frame dictionary: distinct words, most frequent
/// first so the hottest words get 1-byte tokens.
struct DictView {
  const std::int64_t* words = nullptr;
  std::size_t size = 0;
};

/// Builds the frame dictionary for the dict codec from the frame's words,
/// fed in order one slice at a time. A run of equal words counts once,
/// however the slices cut it: the run-length field already collapses it, so
/// a word earns a slot by recurring across the frame, not by sitting in one
/// long run (which rle/delta handle for free).
class DictionaryBuilder {
 public:
  /// Counts the runs in the frame's next `count` words.
  void add(const std::int64_t* words, std::size_t count);

  /// Every word with at least two runs, ordered by (runs desc, value asc)
  /// for determinism, truncated to `max_entries`.
  [[nodiscard]] std::vector<std::int64_t> build(
      std::size_t max_entries = kSchedBinMaxDictEntries) const;

 private:
  std::unordered_map<std::int64_t, std::uint64_t> runs_;
  bool started_ = false;
  std::int64_t last_ = 0;  ///< the word before this slice, once started_.
};

/// Reusable dict-codec encoder: owns the value -> token index built from a
/// dictionary once per frame and shared across every chunk's encode.
class DictEncoder {
 public:
  explicit DictEncoder(DictView dict);

  /// Appends the dict encoding of `count` words to `out`. Wire format is a
  /// sequence of (token, run) ops: token 0 = literal (svarint value
  /// follows), token t >= 1 = dictionary word t-1; then uvarint run >= 1.
  void encode(const std::int64_t* words, std::size_t count,
              std::string& out) const;

 private:
  std::vector<std::pair<std::int64_t, std::uint32_t>> index_;  // sorted by value
};

/// Decodes exactly `count` words of dict-codec payload. Tokens beyond the
/// dictionary and runs overflowing the chunk are errors, not overruns.
void decode_words_dict(DictView dict, const char* data, std::size_t size,
                       std::int64_t* out, std::size_t count);

/// Compresses `count` words into `out` (appended). kDict is rejected here:
/// it needs a frame dictionary — use DictEncoder.
void encode_words(SchedBinCodec codec, const std::int64_t* words,
                  std::size_t count, std::string& out);

/// Decompresses exactly `count` words from data[0, size) into `out`.
/// Throws InvalidArgument when the payload is malformed or does not contain
/// exactly `count` words. Output growth is clamped to the declared decoded
/// size: no decoder ever writes past out[count), whatever the payload
/// claims (an rle run overflowing the chunk is an error, not an overrun),
/// so `count` — not attacker-controlled frame contents — bounds the
/// allocation a caller must provision. Callers sizing `count` from an
/// untrusted header must validate it first (see schedbin.cpp's decode
/// budget and per-chunk minimum-payload clamps). kDict is rejected here:
/// use decode_words_dict with the frame dictionary.
void decode_words(SchedBinCodec codec, const char* data, std::size_t size,
                  std::int64_t* out, std::size_t count);

}  // namespace a2a
