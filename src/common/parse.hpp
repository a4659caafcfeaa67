// The one reader for numbers in outside text: query values and CLI flags,
// XML attributes, rationals and route nodes, demand and failure specs, the
// HTTP Content-Length.
//
// Grammar: what std::from_chars accepts for T, over the whole text: decimal
// digits, a leading '-' only for signed T, a fraction and an exponent only
// for floating T. The value must fit T and be finite. So empty text, a '+'
// or blank, trailing junk, a fraction for an integer, hex, inf/nan and
// out-of-range values are malformed; leading zeros are not.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace a2a {

/// Parses `text` as a T; throws InvalidArgument naming `what` and quoting
/// the text when it is malformed.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  std::string want = "a finite number";
  if constexpr (std::is_integral_v<T>) {
    want = "an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
           ", " + std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  throw InvalidArgument("bad " + std::string(what) + ": \"" +
                        std::string(text) + "\" is not " + want);
}

}  // namespace a2a
