// The buffered keys: the single-lane FNV-1a and the schedule fingerprint as
// the library computed it before it streamed its fields into a two-lane
// hasher (write the whole canonical buffer, then hash it once per seed).
// Kept outside the library as the oracle the streamed forms are checked
// against, byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/api.hpp"

namespace a2a {

/// FNV-1a over `data` from an arbitrary seed; two seeds give 128 bits.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data, std::uint64_t seed);

/// schedule_fingerprint() over a buffer: the canonical topology, fabric and
/// options bytes written out, then hashed with fnv1a under two seeds.
[[nodiscard]] std::string schedule_fingerprint_reference(
    const DiGraph& topology, const Fabric& fabric,
    const ToolchainOptions& options);

}  // namespace a2a
