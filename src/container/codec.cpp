#include "container/codec.hpp"

#include <algorithm>

#include "common/binio.hpp"
#include "common/varint.hpp"

namespace a2a {

const char* codec_name(SchedBinCodec codec) {
  switch (codec) {
    case SchedBinCodec::kRaw: return "raw";
    case SchedBinCodec::kRle: return "rle";
    case SchedBinCodec::kDelta: return "delta";
    case SchedBinCodec::kDict: return "dict";
  }
  throw InvalidArgument("unknown SchedBin codec id " +
                        std::to_string(static_cast<int>(codec)));
}

SchedBinCodec codec_from_name(const std::string& name) {
  if (name == "raw") return SchedBinCodec::kRaw;
  if (name == "rle") return SchedBinCodec::kRle;
  if (name == "delta") return SchedBinCodec::kDelta;
  if (name == "dict") return SchedBinCodec::kDict;
  throw InvalidArgument("unknown SchedBin codec name: " + name);
}

namespace {

void encode_raw(const std::int64_t* words, std::size_t count,
                std::string& out) {
  out.reserve(out.size() + count * 8);
  for (std::size_t i = 0; i < count; ++i) {
    binio::put_i64(out, words[i]);
  }
}

void decode_raw(const char* data, std::size_t size, std::int64_t* out,
                std::size_t count) {
  // Compare via division: `count * 8` could wrap for a hostile count near
  // SIZE_MAX, turning a mismatch into a false pass.
  A2A_REQUIRE(size % 8 == 0 && size / 8 == count,
              "raw chunk size mismatch: ", size, " bytes for ", count,
              " words");
  const std::string_view bytes(data, size);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::int64_t>(binio::get_uint(bytes, i * 8, 8));
  }
}

void encode_rle(const std::int64_t* words, std::size_t count,
                std::string& out) {
  std::size_t i = 0;
  while (i < count) {
    const std::int64_t value = words[i];
    std::size_t run = 1;
    while (i + run < count && words[i + run] == value) ++run;
    append_svarint(out, value);
    append_uvarint(out, run);
    i += run;
  }
}

void decode_rle(const char* data, std::size_t size, std::int64_t* out,
                std::size_t count) {
  std::size_t pos = 0;
  std::size_t produced = 0;
  while (produced < count) {
    const std::int64_t value = read_svarint(data, size, pos);
    const std::uint64_t run = read_uvarint(data, size, pos);
    A2A_REQUIRE(run > 0 && run <= count - produced,
                "rle run overflows chunk: run=", run, " produced=", produced,
                " count=", count);
    for (std::uint64_t r = 0; r < run; ++r) out[produced++] = value;
  }
  A2A_REQUIRE(pos == size, "trailing bytes after rle payload");
}

void encode_delta(const std::int64_t* words, std::size_t count,
                  std::string& out) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Wrapping subtraction: delta coding must round-trip arbitrary int64
    // (e.g. bit-cast doubles) without signed overflow UB.
    const auto delta = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(words[i]) - static_cast<std::uint64_t>(prev));
    append_svarint(out, delta);
    prev = words[i];
  }
}

void decode_delta(const char* data, std::size_t size, std::int64_t* out,
                  std::size_t count) {
  std::size_t pos = 0;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t delta = read_svarint(data, size, pos);
    prev = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                     static_cast<std::uint64_t>(delta));
    out[i] = prev;
  }
  A2A_REQUIRE(pos == size, "trailing bytes after delta payload");
}

}  // namespace

void DictionaryBuilder::add(const std::int64_t* words, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (started_ && words[i] == last_) continue;  // the run goes on
    ++runs_[words[i]];
    last_ = words[i];
    started_ = true;
  }
}

std::vector<std::int64_t> DictionaryBuilder::build(
    std::size_t max_entries) const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> repeated;
  repeated.reserve(runs_.size());
  for (const auto& [value, n] : runs_) {
    if (n >= 2) repeated.push_back({value, n});
  }
  std::sort(repeated.begin(), repeated.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (repeated.size() > max_entries) repeated.resize(max_entries);
  std::vector<std::int64_t> dict;
  dict.reserve(repeated.size());
  for (const auto& [value, n] : repeated) dict.push_back(value);
  return dict;
}

DictEncoder::DictEncoder(DictView dict) {
  A2A_REQUIRE(dict.size <= kSchedBinMaxDictEntries, "dictionary with ",
              dict.size, " entries above the ", kSchedBinMaxDictEntries,
              " ceiling");
  index_.reserve(dict.size);
  for (std::size_t i = 0; i < dict.size; ++i) {
    index_.push_back({dict.words[i], static_cast<std::uint32_t>(i)});
  }
  std::sort(index_.begin(), index_.end());
}

void DictEncoder::encode(const std::int64_t* words, std::size_t count,
                         std::string& out) const {
  std::size_t i = 0;
  while (i < count) {
    const std::int64_t value = words[i];
    std::size_t run = 1;
    while (i + run < count && words[i + run] == value) ++run;
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), std::pair<std::int64_t, std::uint32_t>{value, 0},
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it != index_.end() && it->first == value) {
      append_uvarint(out, static_cast<std::uint64_t>(it->second) + 1);
    } else {
      append_uvarint(out, 0);
      append_svarint(out, value);
    }
    append_uvarint(out, run);
    i += run;
  }
}

void decode_words_dict(DictView dict, const char* data, std::size_t size,
                       std::int64_t* out, std::size_t count) {
  std::size_t pos = 0;
  std::size_t produced = 0;
  while (produced < count) {
    const std::uint64_t token = read_uvarint(data, size, pos);
    std::int64_t value;
    if (token == 0) {
      value = read_svarint(data, size, pos);
    } else {
      A2A_REQUIRE(token <= dict.size, "dict token ", token,
                  " beyond the ", dict.size, "-entry frame dictionary");
      value = dict.words[token - 1];
    }
    const std::uint64_t run = read_uvarint(data, size, pos);
    A2A_REQUIRE(run > 0 && run <= count - produced,
                "dict run overflows chunk: run=", run, " produced=", produced,
                " count=", count);
    for (std::uint64_t r = 0; r < run; ++r) out[produced++] = value;
  }
  A2A_REQUIRE(pos == size, "trailing bytes after dict payload");
}

void encode_words(SchedBinCodec codec, const std::int64_t* words,
                  std::size_t count, std::string& out) {
  switch (codec) {
    case SchedBinCodec::kRaw: encode_raw(words, count, out); return;
    case SchedBinCodec::kRle: encode_rle(words, count, out); return;
    case SchedBinCodec::kDelta: encode_delta(words, count, out); return;
    case SchedBinCodec::kDict:
      throw InvalidArgument("dict codec needs a frame dictionary — use DictEncoder");
  }
  throw InvalidArgument("unknown SchedBin codec id " +
                        std::to_string(static_cast<int>(codec)));
}

void decode_words(SchedBinCodec codec, const char* data, std::size_t size,
                  std::int64_t* out, std::size_t count) {
  switch (codec) {
    case SchedBinCodec::kRaw: decode_raw(data, size, out, count); return;
    case SchedBinCodec::kRle: decode_rle(data, size, out, count); return;
    case SchedBinCodec::kDelta: decode_delta(data, size, out, count); return;
    case SchedBinCodec::kDict:
      throw InvalidArgument(
          "dict codec needs a frame dictionary — use decode_words_dict");
  }
  throw InvalidArgument("unknown SchedBin codec id " +
                        std::to_string(static_cast<int>(codec)));
}

}  // namespace a2a
