// Bit-for-bit comparison of two LP solves, for the determinism pins and
// the warm-start rule (a basis solve_lp() rejects leaves the cold solve).
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "lp/simplex.hpp"

namespace a2a {

/// Whether `a` and `b` are the same solve: status, pivots, objective,
/// values and exported basis, bit for bit (wall time aside).
inline ::testing::AssertionResult same_solve(const LpSolution& a,
                                             const LpSolution& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (a.status != b.status) {
    return ::testing::AssertionFailure()
           << "status " << to_string(a.status) << " vs " << to_string(b.status);
  }
  if (a.iterations != b.iterations) {
    return ::testing::AssertionFailure()
           << "iterations " << a.iterations << " vs " << b.iterations;
  }
  if (!same_bits(a.objective, b.objective)) {
    return ::testing::AssertionFailure()
           << "objective " << a.objective << " vs " << b.objective;
  }
  if (a.values.size() != b.values.size()) {
    return ::testing::AssertionFailure() << "value counts differ";
  }
  for (std::size_t j = 0; j < a.values.size(); ++j) {
    if (!same_bits(a.values[j], b.values[j])) {
      return ::testing::AssertionFailure() << "value " << j << " differs";
    }
  }
  if (a.basis.variables != b.basis.variables || a.basis.rows != b.basis.rows) {
    return ::testing::AssertionFailure() << "bases differ";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace a2a
