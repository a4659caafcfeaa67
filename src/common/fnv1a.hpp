// FNV-1a hashing and 128-bit hex keys.
//
// The schedule fingerprint, the cache's content key and the failover
// fingerprint are all two seeded FNV-1a lanes over one byte stream, printed
// as 32 hex chars. Fnv1a128 runs both lanes in one pass: each lane is a
// serial chain of multiplies, but the two chains are independent, so the
// CPU overlaps them, and a caller streams its fields in as it produces them
// instead of writing a buffer first. These bytes name every cache entry and
// failover library on disk, so the hasher must never change its output; the
// single-lane fnv1a it is checked against lives in tests/reference/.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace a2a {

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

/// Two FNV-1a lanes, seeded apart, fed the same bytes in one pass. Lane k
/// starts at seed_k ^ the FNV offset basis.
class Fnv1a128 {
 public:
  Fnv1a128(std::uint64_t seed_a, std::uint64_t seed_b)
      : a_(seed_a ^ kOffsetBasis), b_(seed_b ^ kOffsetBasis) {}

  void update(std::string_view data) {
    for (const char c : data) mix(static_cast<unsigned char>(c));
  }
  /// `v` as 8 little-endian bytes, the order binio::put_u64 writes.
  void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) mix(v & 0xFF);
  }

  [[nodiscard]] std::string hex() const { return hex128(a_, b_); }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void mix(std::uint64_t byte) {
    a_ = (a_ ^ byte) * kPrime;
    b_ = (b_ ^ byte) * kPrime;
  }

  std::uint64_t a_;
  std::uint64_t b_;
};

}  // namespace a2a
