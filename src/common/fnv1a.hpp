// FNV-1a hashing and 128-bit hex keys.
//
// The schedule fingerprint, the cache's content key and the failover
// fingerprint are all two seeded FNV-1a hashes printed as 32 hex chars.
// These bytes name every cache entry and failover library on disk, so the
// functions here must never change their output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace a2a {

/// FNV-1a over `data` from an arbitrary seed; two seeds give 128 bits.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data,
                                         std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// `a` then `b` as 32 lowercase hex digits, most significant first.
[[nodiscard]] inline std::string hex128(std::uint64_t a, std::uint64_t b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t v : {a, b}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(v >> shift) & 0xF]);
    }
  }
  return out;
}

}  // namespace a2a
