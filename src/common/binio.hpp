// Little-endian scalar I/O on byte strings.
//
// Shared by the SchedBin container and the schedule-cache disk envelope so
// both speak the same byte order on every host. Header-only: these inline
// to single loads/stores on little-endian targets after optimization.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace a2a::binio {

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>(v >> 8));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<char>(v & 0xFF));
    v >>= 8;
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>(v & 0xFF));
    v >>= 8;
  }
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Reads a `width`-byte little-endian unsigned integer at `pos`. The caller
/// is responsible for `pos + width <= bytes.size()` (checked).
[[nodiscard]] inline std::uint64_t get_uint(std::string_view bytes,
                                            std::size_t pos, int width) {
  A2A_REQUIRE(pos + static_cast<std::size_t>(width) <= bytes.size(),
              "truncated binary blob: need ", width, " bytes at offset ", pos);
  std::uint64_t v = 0;
  for (int b = width - 1; b >= 0; --b) {
    v = (v << 8) | static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(b)]);
  }
  return v;
}

/// Cursor-style reader: reads and advances `pos`.
[[nodiscard]] inline std::uint64_t read_uint(std::string_view bytes,
                                             std::size_t& pos, int width) {
  const std::uint64_t v = get_uint(bytes, pos, width);
  pos += static_cast<std::size_t>(width);
  return v;
}

}  // namespace a2a::binio
