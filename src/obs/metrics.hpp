// Metrics registry — named counters, gauges and latency histograms shared by
// every pipeline layer (SimplexCore, ScheduleCache, SchedBin, ThreadPool,
// generate_schedule()).
//
// Design constraints, in order:
//   * hot paths pay nothing they can avoid: every update is a relaxed
//     atomic, and when metrics are runtime-disabled the update degrades to
//     ONE relaxed atomic load (the shared enabled flag) and a branch;
//   * registration is thread-safe and references are stable forever, so a
//     call site resolves its metric once (function-local static) and then
//     updates lock-free;
//   * snapshots are consistent enough for monitoring (relaxed loads — a
//     snapshot taken mid-update may be one tick stale, never torn).
//
// The metric-name catalog lives in README.md ("Observability"). Names are
// dot-separated lowercase (`lp.iterations`, `cache.memory_hits`); keep new
// ones in that style so the flat JSON export stays greppable.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace a2a::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// Runtime master switch (default on). Disabling makes every metric update a
/// single relaxed load; existing values are retained, not cleared.
[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled);

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed instantaneous value (queue depths, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) { add(-n); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram. Buckets are powers of two in
/// NANOSECONDS: bucket i counts observations in [2^i ns, 2^(i+1) ns), with
/// the first and last buckets absorbing the tails — 32 buckets span <1 ns
/// to >2 s, which covers everything from a counter bump to a Fig. 10 LP.
/// Fixed bounds keep observation to a bit-scan plus one relaxed add and make
/// histograms mergeable across processes without bound negotiation.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void observe_ns(std::uint64_t ns) {
    if (!metrics_enabled()) return;
    int b = 0;
    while (b + 1 < kBuckets && (ns >> (b + 1)) != 0) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void observe_seconds(double seconds) {
    if (seconds < 0.0) seconds = 0.0;
    observe_ns(static_cast<std::uint64_t>(seconds * 1e9));
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound (exclusive) of bucket i in nanoseconds.
  [[nodiscard]] static std::uint64_t bucket_bound_ns(int i) {
    return 1ULL << (i + 1);
  }
  /// Approximate quantile (q in [0,1]) as the upper bound of the bucket
  /// containing the q-th observation; 0 when empty.
  [[nodiscard]] std::uint64_t quantile_ns(double q) const;
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's relaxed-load snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;               ///< counter/gauge value; histogram count.
  std::uint64_t sum_ns = 0;             ///< histogram only.
  std::uint64_t p50_ns = 0, p99_ns = 0; ///< histogram only.
  std::vector<std::uint64_t> buckets;   ///< histogram only (trailing zeros trimmed).
};

/// Process-global name -> metric registry. Metrics are created on first use
/// and never destroyed (references remain valid for the process lifetime),
/// so call sites hold a `static Counter&` and update without ever touching
/// the registry lock again. Re-requesting a name with a different kind
/// throws InternalError — names are a flat global namespace.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Relaxed-load snapshot of every registered metric, name-sorted.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Flat JSON object: {"name": value, ...} for counters/gauges;
  /// histograms expand to "<name>.count", "<name>.sum_ns", "<name>.p50_ns",
  /// "<name>.p99_ns". Always a valid JSON document, even when empty.
  [[nodiscard]] std::string to_json() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// The one snapshot-export implementation every consumer shares — the
// schedserved /metrics endpoint, `schedgen --metrics/--stats`, and the
// bench JSON records all call these instead of hand-rolling export code.

/// The global registry as an embeddable flat JSON value: to_json() with
/// trailing whitespace trimmed, so it splices into larger documents
/// (BENCH_*.json records, HTTP response bodies).
[[nodiscard]] std::string metrics_json();

/// Writes the global registry's flat JSON (newline-terminated) to `path`.
/// Throws on I/O failure.
void write_metrics_json(const std::string& path);

/// Renders the global registry as an aligned human-readable table
/// (histogram times in milliseconds; p50/p99 are bucket upper bounds).
void print_metrics_table(std::ostream& os);

}  // namespace a2a::obs

/// Resolve-once helpers for hot call sites: the registry lock is paid on the
/// first execution only, every later pass is a direct atomic update.
#define A2A_COUNTER(name_literal)                                          \
  ([]() -> ::a2a::obs::Counter& {                                          \
    static ::a2a::obs::Counter& c =                                        \
        ::a2a::obs::MetricsRegistry::global().counter(name_literal);       \
    return c;                                                              \
  }())
#define A2A_GAUGE(name_literal)                                            \
  ([]() -> ::a2a::obs::Gauge& {                                            \
    static ::a2a::obs::Gauge& g =                                          \
        ::a2a::obs::MetricsRegistry::global().gauge(name_literal);         \
    return g;                                                              \
  }())
#define A2A_HISTOGRAM(name_literal)                                        \
  ([]() -> ::a2a::obs::Histogram& {                                        \
    static ::a2a::obs::Histogram& h =                                      \
        ::a2a::obs::MetricsRegistry::global().histogram(name_literal);     \
    return h;                                                              \
  }())
