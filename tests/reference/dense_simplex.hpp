// The dense reference LP solver: the original dense-inverse Dantzig
// simplex, kept outside the library as the independent oracle the tests and
// fuzz_lp check solve_lp() against, and as bench_lp's dense leg.
#pragma once

#include "lp/simplex.hpp"

namespace a2a {

/// Same statuses and objectives as solve_lp(); no basis export, no warm
/// starts and no LpStats. Of `options` it reads only max_iterations.
[[nodiscard]] LpSolution solve_lp_dense(const LpModel& model,
                                        const SimplexOptions& options = {});

}  // namespace a2a
