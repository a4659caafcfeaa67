#include "common/crc32.hpp"

#include <array>

namespace a2a {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
/// kTables[k][b] is the CRC register after byte b is followed by k zero
/// bytes, so eight table lookups advance the register by eight bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load; compiles to one load on little-endian hosts.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace a2a
