// Demand matrices — the workload side of the MCF formulations.
//
// Every LP in src/mcf is stated over per-commodity demands d_{s,t}; until
// now the whole toolchain hard-wired d == 1 (uniform all-to-all). A
// DemandMatrix carries one non-negative weight per ordered terminal pair —
// weight w means commodity (s,d) ships w shards — and the named generators
// cover the ROADMAP's scenario-diversity workloads: Zipf rows for MoE
// hot-expert skew, permutations for shift/transpose traffic, block-diagonal
// for co-located tenants. Weight 1 everywhere must reproduce the uniform
// path bit-for-bit (the fuzz_demands golden check), so solvers take an
// optional `const DemandMatrix*` where nullptr means "unit demand" and a
// unit matrix builds the exact same models.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mcf/concurrent_flow.hpp"

namespace a2a {

/// Dense n x n matrix of per-commodity demand weights, indexed by terminal
/// index (not node id — on augmented graphs the terminals are the hosts).
/// The diagonal is identically zero.
class DemandMatrix {
 public:
  DemandMatrix() = default;
  explicit DemandMatrix(int num_terminals, double fill = 0.0);

  /// All off-diagonal weights 1 — the classic all-to-all.
  [[nodiscard]] static DemandMatrix uniform(int num_terminals);
  /// Zipf-skewed rows: source r sends with weight proportional to
  /// (r+1)^-s, normalized so the mean row weight is 1 (total demand equals
  /// uniform's). s == 0 is exactly uniform — the generators agree bit-wise.
  [[nodiscard]] static DemandMatrix zipf(int num_terminals, double s);
  /// One unit-weight commodity per source: i -> (i + 1 + seed mod (n-1))
  /// mod n. A fixed cyclic shift, so every row and column has exactly one
  /// positive entry and n(n-1) - n commodities are degenerate zeros.
  [[nodiscard]] static DemandMatrix permutation(int num_terminals,
                                               std::uint64_t seed = 0);
  /// Contiguous tenant blocks: weight 1 inside a block, 0 across blocks.
  [[nodiscard]] static DemandMatrix block_diagonal(int num_terminals,
                                                   int blocks);

  [[nodiscard]] int num_terminals() const { return n_; }
  [[nodiscard]] double at(int si, int di) const {
    return weights_[static_cast<std::size_t>(si) * static_cast<std::size_t>(n_) +
                    static_cast<std::size_t>(di)];
  }
  void set(int si, int di, double w);

  /// True when every off-diagonal weight is exactly 1.0.
  [[nodiscard]] bool is_uniform_unit() const;
  /// Sum of all weights.
  [[nodiscard]] double total() const;
  /// Commodities with positive weight.
  [[nodiscard]] int num_positive() const;
  [[nodiscard]] double row_sum(int si) const;
  [[nodiscard]] double col_sum(int di) const;

 private:
  int n_ = 0;
  std::vector<double> weights_;  ///< row-major n x n, diagonal 0.
};

/// Weight of commodity `k` (in `pairs`'s indexing) under `demand`;
/// nullptr means unit demand. The one lookup every generalized model
/// builder goes through.
[[nodiscard]] inline double demand_weight(const DemandMatrix* demand,
                                          const TerminalPairs& pairs, int k) {
  if (demand == nullptr) return 1.0;
  const auto [si, di] = pairs.terminal_indices(k);
  return demand->at(si, di);
}

/// Parseable description of a demand matrix, sized at instantiation time —
/// what travels through ToolchainOptions, fingerprints, query strings and
/// CLI flags. Grammar: "uniform" | "zipf:<s>" | "perm[:<seed>]" |
/// "block:<k>".
struct DemandSpec {
  enum class Kind : std::uint8_t {
    kUniform = 0,
    kZipf = 1,
    kPermutation = 2,
    kBlockDiagonal = 3,
  };
  Kind kind = Kind::kUniform;
  double zipf_s = 0.0;
  std::uint64_t seed = 0;
  int blocks = 2;

  /// Throws InvalidArgument on malformed specs (the service maps it to 400).
  [[nodiscard]] static DemandSpec parse(std::string_view spec);
  /// Canonical spelling; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] DemandMatrix instantiate(int num_terminals) const;
  [[nodiscard]] bool is_default() const { return *this == DemandSpec{}; }

  friend bool operator==(const DemandSpec&, const DemandSpec&) = default;
};

}  // namespace a2a
