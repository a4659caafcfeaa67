// Error handling primitives shared by every module.
//
// The library reports contract violations and unrecoverable numerical
// conditions via exceptions derived from a2a::Error so that callers (tests,
// benches, applications) can distinguish library failures from std failures.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace a2a {

/// Base class of all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates its documented contract.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an algorithm reaches a state that indicates a logic bug
/// (e.g. a validated invariant fails mid-run).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Context a solver failure carries so drift-induced singularity reports are
/// actionable: where the run was when it died, not just that it died.
struct SolverErrorContext {
  long long iterations = -1;        ///< simplex iterations completed (-1: unknown).
  long long refactorizations = -1;  ///< basis refactorizations completed.
  long long ft_updates = -1;        ///< accepted Forrest–Tomlin updates.
  long long ft_refusals = -1;       ///< refused Forrest–Tomlin updates.
  long long bland_episodes = -1;    ///< switches to Bland's rule.
  long long degenerate_pivots = -1;   ///< zero-step pivots.
  long long column_priced_rows = -1;  ///< column-wise pivot rows.
  const char* phase = "";  ///< "build", "phase1" or "primal".
};

/// Thrown by the LP solver for infeasible/unbounded models when the caller
/// asked for a guaranteed-optimal solution, and for numerical breakdowns
/// (singular basis after drift). The optional context records how far the
/// solve got; what() includes it when present.
class SolverError : public Error {
 public:
  explicit SolverError(const std::string& what) : Error(what) {}
  SolverError(const std::string& what, const SolverErrorContext& context)
      : Error(with_context(what, context)), context_(context) {}

  [[nodiscard]] const SolverErrorContext& context() const { return context_; }

 private:
  static std::string with_context(const std::string& what,
                                  const SolverErrorContext& context) {
    std::ostringstream os;
    os << what << " [";
    if (*context.phase != '\0') os << "phase=" << context.phase << ", ";
    os << "iterations=" << context.iterations
       << ", refactorizations=" << context.refactorizations << "]";
    return os.str();
  }
  SolverErrorContext context_;
};

namespace detail {
template <typename... Parts>
[[nodiscard]] std::string concat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}
}  // namespace detail

}  // namespace a2a

/// Argument/precondition check. Active in all build types: these guard the
/// public API surface, not hot inner loops.
#define A2A_REQUIRE(cond, ...)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      throw ::a2a::InvalidArgument(::a2a::detail::concat(                 \
          "precondition failed: ", #cond, " — ", __VA_ARGS__));           \
    }                                                                     \
  } while (0)

/// Internal invariant check for algorithm states that must hold by
/// construction.
#define A2A_ASSERT(cond, ...)                                             \
  do {                                                                    \
    if (!(cond)) {                                                        \
      throw ::a2a::InternalError(::a2a::detail::concat(                   \
          "invariant failed: ", #cond, " — ", __VA_ARGS__));              \
    }                                                                     \
  } while (0)
