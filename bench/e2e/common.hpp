// Shared plumbing of bench_e2e: clocks, sample statistics, the metric
// catalog, the per-workload result record, metric-registry deltas, scratch
// directories, and the stage timer that wraps each layer call in a span.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ------------------------------------------------------------- host speed ---

/// The host probe's time on a quiet host of the kind the README's baselines
/// come from. Host-normalized seconds are wall seconds at this probe time.
inline constexpr double kProbeReferenceS = 0.010;

/// A fixed piece of the benchmark's own work whose time stands for how fast
/// the host runs at the moment: Dijkstra from one source over a fixed random
/// graph of 32 768 nodes and 262 144 arcs, heap-driven and branchy over a
/// few MB, like the library's solvers.
///
/// The benchmark runs on a few cores of a shared host. Its neighbours slow
/// every computation by up to 1.6x, through the caches and cores they share,
/// in episodes of seconds to minutes, and CPU time slows with wall time. Ten
/// runs of the same 1.2-1.3 s synthesis spread by 22-36% between their
/// quartiles, and the probe slows with them. A compute-bound timing is
/// therefore reported in host-normalized seconds, wall × kProbeReferenceS /
/// probe, with the probe taken next to it (ProbeBracket, ProbeSampler): on
/// the same hosts those spread by 4-12%. The probe never calls the library,
/// so a library change moves the normalized time by as much as the wall
/// time.
class HostProbe {
 public:
  HostProbe() {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 17;
    };
    arcs_.resize(kNodes * kDegree);
    for (Arc& a : arcs_) {
      a.to = static_cast<std::uint32_t>(next() % kNodes);
      a.weight = 1.0 + static_cast<double>(next() % 1000) * 0.01;
    }
    dist_.resize(kNodes);
    heap_.reserve(kNodes * kDegree);
    (void)run();  // touches its memory before anyone times it.
  }

  /// Seconds the fixed work takes now.
  double run() {
    const auto t0 = Clock::now();
    std::fill(dist_.begin(), dist_.end(), std::numeric_limits<double>::infinity());
    heap_.clear();
    const auto later = std::greater<std::pair<double, std::uint32_t>>();
    dist_[0] = 0.0;
    heap_.emplace_back(0.0, 0);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > dist_[u]) continue;
      for (std::size_t k = u * kDegree; k < (u + 1) * kDegree; ++k) {
        const Arc& a = arcs_[k];
        if (d + a.weight < dist_[a.to]) {
          dist_[a.to] = d + a.weight;
          heap_.emplace_back(dist_[a.to], a.to);
          std::push_heap(heap_.begin(), heap_.end(), later);
        }
      }
    }
    const double seconds = seconds_since(t0);
    // The farthest distance depends on every relaxation, so the work cannot
    // be optimized away; it is the same on every run.
    checksum_ = *std::max_element(dist_.begin(), dist_.end());
    return seconds;
  }

 private:
  static constexpr std::size_t kNodes = 32768;
  static constexpr std::size_t kDegree = 8;
  struct Arc {
    std::uint32_t to;
    double weight;
  };
  std::vector<Arc> arcs_;
  std::vector<double> dist_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  volatile double checksum_ = 0.0;
};

/// The process's probe, built on first use.
inline HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

/// `wall_s` measured between probes that took `probe_s` on average, in
/// host-normalized seconds.
inline double normalized(double wall_s, double probe_s) {
  return wall_s * kProbeReferenceS / probe_s;
}

// ------------------------------------------------------------ statistics ---

/// A set of measurements. Percentiles use the nearest-rank rule on the
/// sorted samples. A percentile is supported when at least 10 samples lie
/// beyond it; beyond() reports how many do, and the record states it.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double percentile(double p) const {
    if (values_.empty()) return 0.0;
    sort();
    return values_[rank(p)];
  }
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] std::size_t beyond(double p) const {
    return values_.empty() ? 0 : values_.size() - 1 - rank(p);
  }
  /// p when at least 10 samples lie beyond the p-th percentile; otherwise
  /// the highest percentile that has 10 beyond it, but never below the
  /// median.
  [[nodiscard]] double supported(double p) const {
    const std::size_t n = values_.size();
    if (beyond(p) >= 10 || n == 0) return p;
    const double highest = n > 10 ? static_cast<double>(n - 10) / static_cast<double>(n) : 0.0;
    return std::max(0.5, std::min(p, highest));
  }

 private:
  [[nodiscard]] std::size_t rank(double p) const {
    // The epsilon keeps p * n from rounding up past an exact rank.
    const double r = std::ceil(p * static_cast<double>(values_.size()) - 1e-9);
    if (r < 1.0) return 0;
    return std::min(values_.size(), static_cast<std::size_t>(r)) - 1;
  }
  void sort() const {
    if (sorted_) return;
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Probe seconds around a stretch of work: one probe when constructed, one
/// when end() is called, and their mean. Each probe is added to `probes`.
class ProbeBracket {
 public:
  explicit ProbeBracket(Samples& probes) : probes_(probes), before_(host_probe().run()) {
    probes_.add(before_);
  }
  /// The mean of the probe before the work and one run now.
  double end() {
    const double after = host_probe().run();
    probes_.add(after);
    return 0.5 * (before_ + after);
  }

 private:
  Samples& probes_;
  double before_;
};

/// Host probes on a thread of their own, for a stream whose client threads
/// cannot stop for a probe: one probe every `period_s` until stop(), each
/// stamped with its midpoint in seconds since `origin`. Just before each
/// probe it calls `on_probe` with the probe's start, so that the caller can
/// read a counter at the same moments. The probe shares the host with the
/// stream, so it also slows with the stream's own load, which is the same
/// on every run.
class ProbeSampler {
 public:
  ProbeSampler(Clock::time_point origin, double period_s,
               std::function<void(double)> on_probe = {})
      : origin_(origin),
        on_probe_(std::move(on_probe)),
        thread_([this, period_s] { loop(period_s); }) {}
  ~ProbeSampler() { stop(); }
  ProbeSampler(const ProbeSampler&) = delete;
  ProbeSampler& operator=(const ProbeSampler&) = delete;

  /// Ends the sampling and joins the thread; it has probed at least once.
  void stop() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Median probe seconds around [from, to], in seconds since the origin:
  /// over the probes whose midpoints lie in it, widened on both sides by
  /// 0.25 s, 0.5 s, 1 s, ... until it holds kMinProbes or every probe.
  [[nodiscard]] double around(double from, double to) const {
    std::lock_guard lock(mutex_);
    const auto before = [](const Probe& p, double t) { return p.at < t; };
    const auto after = [](double t, const Probe& p) { return t < p.at; };
    for (double pad = 0.0;; pad = std::max(0.25, 2.0 * pad)) {
      const auto first = std::lower_bound(probes_.begin(), probes_.end(), from - pad, before);
      const auto last = std::upper_bound(first, probes_.end(), to + pad, after);
      if (last - first >= kMinProbes ||
          (first == probes_.begin() && last == probes_.end())) {
        Samples s;
        for (auto it = first; it != last; ++it) s.add(it->seconds);
        return s.median();
      }
    }
  }

  /// Every probe's seconds.
  [[nodiscard]] Samples all() const {
    std::lock_guard lock(mutex_);
    Samples s;
    for (const Probe& p : probes_) s.add(p.seconds);
    return s;
  }

 private:
  static constexpr std::ptrdiff_t kMinProbes = 5;
  struct Probe {
    double at;  ///< midpoint; increases from probe to probe.
    double seconds;
  };

  void loop(double period_s) {
    std::unique_lock lock(mutex_);
    do {
      lock.unlock();
      const double start = std::chrono::duration<double>(Clock::now() - origin_).count();
      if (on_probe_) on_probe_(start);
      const double seconds = host_probe().run();
      lock.lock();
      probes_.push_back({start + 0.5 * seconds, seconds});
    } while (!wake_.wait_for(lock, std::chrono::duration<double>(period_s),
                             [this] { return stop_; }));
  }

  Clock::time_point origin_;
  std::function<void(double)> on_probe_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Probe> probes_;
  std::thread thread_;  ///< last, so that it starts after every other member.
};

// ---------------------------------------------------------------- catalog ---

/// A metric's name and unit. Bounds and directions live in BENCHMARK.json,
/// which `--compare` reads.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the system sees. Every workload reports every one.
inline const std::vector<MetricDef>& end_to_end_catalog() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"synth_s", "s"},
      {"miss_p50_s", "s"},
      {"miss_p90_s", "s"},
      {"hit_p50_s", "s"},
      {"bound_ratio", "ratio"},
      {"algo_GBps", "GB/s"},
      {"peak_rss_MB", "MB"},
  };
  return defs;
}

/// Single-layer numbers from the traced run. A workload that does not reach
/// a layer reports 0 for it.
inline const std::vector<MetricDef>& per_layer_catalog() {
  static const std::vector<MetricDef> defs = {
      {"lp.solves", "count"},
      {"lp.iterations", "count"},
      {"lp.refactorizations", "count"},
      {"lp.ft_updates", "count"},
      {"lp.solve_s", "s"},
      {"mcf.solve_s", "s"},
      {"mcf.master_s", "s"},
      {"mcf.children_s", "s"},
      {"mcf.extract_s", "s"},
      {"mcf.fptas_s", "s"},
      {"graph.augment_s", "s"},
      {"graph.path_diversity_s", "s"},
      {"graph.disjoint_paths_s", "s"},
      {"collectives.demand_s", "s"},
      {"schedule.compile_s", "s"},
      {"schedule.validate_s", "s"},
      {"schedule.steps", "count"},
      {"schedule.transfers", "count"},
      {"schedule.chunks", "count"},
      {"container.encode_s", "s"},
      {"container.bytes", "bytes"},
      {"vc.assign_s", "s"},
      {"vc.layers", "count"},
      {"pool.tasks", "count"},
      {"core.fingerprint_s", "s"},
      {"cache.lookup_artifact_s", "s"},
      {"cache.disk_hit_share", "ratio"},
      {"cache.disk_writes", "count"},
      {"broker.try_lookup_s", "s"},
      {"admission.hit_s", "s"},
      {"transport.hit_s", "s"},
      {"service.synth_mean_s", "s"},
      {"service.miss_wait_s", "s"},
      {"service.runs_per_unique_miss", "ratio"},
      {"service.coalesced", "count"},
      {"failover.init_s", "s"},
      {"failover.precompute_s", "s"},
      {"failover.rung.hit", "count"},
      {"failover.rung.exact", "count"},
      {"failover.rung.fptas", "count"},
      {"failover.rung.degraded", "count"},
      {"failover.exact_s", "s"},
      {"failover.fptas_s", "s"},
      {"failover.validate_s", "s"},
      {"gen.late_p99_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return defs;
}

inline const MetricDef* find_metric(const std::vector<MetricDef>& catalog,
                                    const std::string& name) {
  for (const MetricDef& d : catalog) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

// ------------------------------------------------------------------- JSON ---

/// Shortest text that reads back as the same double (all its digits).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ----------------------------------------------------------------- result ---

/// One workload run: its metrics (named by the catalog of its mode), the
/// sample count behind each timing, and the operation tally. Operations
/// that fail or are refused count in `failed`; an output that fails its
/// check counts there too and makes the run incorrect. Thread-safe.
class Result {
 public:
  Result(std::string workload, bool traced)
      : workload_(std::move(workload)), traced_(traced) {}

  /// Sets a metric of this mode's catalog. Names outside it are a bug in
  /// the benchmark, not a measurement, so they throw.
  void set(const std::string& name, double value) {
    const auto& all = traced_ ? per_layer_catalog() : end_to_end_catalog();
    if (find_metric(all, name) == nullptr) {
      throw std::logic_error("metric not in the " +
                             std::string(traced_ ? "per-layer" : "end-to-end") +
                             " catalog: " + name);
    }
    std::lock_guard lock(mutex_);
    values_[name] = value;
  }
  void samples(const std::string& what, std::size_t n) {
    std::lock_guard lock(mutex_);
    sample_counts_[what] = n;
  }
  void attempted(std::uint64_t n = 1) {
    std::lock_guard lock(mutex_);
    attempted_ += n;
  }
  /// A line of context printed after the metrics.
  void note(const std::string& text) {
    std::lock_guard lock(mutex_);
    note_locked(text);
  }
  /// An operation failed or was refused (HTTP 429/504/500, unschedulable).
  void failed(const std::string& why) {
    std::lock_guard lock(mutex_);
    ++failed_;
    note_locked("failed: " + why);
  }
  /// An output failed its check: counts as a failed operation AND marks the
  /// run incorrect.
  void check_failed(const std::string& why) {
    std::lock_guard lock(mutex_);
    ++failed_;
    correct_ = false;
    note_locked("check failed: " + why);
  }

  [[nodiscard]] bool correct() const {
    std::lock_guard lock(mutex_);
    return correct_;
  }
  /// Drops every metric from the output (the replay gate failed, so the
  /// per-layer numbers would describe some other computation).
  void withhold_metrics(const std::string& why) {
    check_failed(why);
    std::lock_guard lock(mutex_);
    withheld_ = true;
  }

  /// Human lines, one per metric: `workload metric value unit`, then the
  /// sample counts and the operation tally.
  void print_lines(std::ostream& os) const {
    std::lock_guard lock(mutex_);
    for (const MetricDef& d : catalog_locked()) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", value_locked(d.name));
      os << workload_ << ' ' << d.name << ' ' << buf << ' ' << d.unit << '\n';
    }
    os << workload_ << " samples";
    for (const auto& [what, n] : sample_counts_) os << ' ' << what << '=' << n;
    os << '\n'
       << workload_ << " attempted " << attempted_ << " failed " << failed_
       << " fail_share "
       << (attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_))
       << (correct_ ? " correct" : " INCORRECT") << '\n';
    for (const std::string& n : notes_) os << workload_ << " # " << n << '\n';
  }

  /// The metrics object: {"name": {"value": v, "unit": u}, ...}.
  [[nodiscard]] std::string metrics_json() const {
    std::lock_guard lock(mutex_);
    std::string out = "{";
    bool first = true;
    for (const MetricDef& d : catalog_locked()) {
      out += first ? "" : ", ";
      first = false;
      out += json_string(d.name) + ": {\"value\": " +
             json_number(value_locked(d.name)) +
             ", \"unit\": " + json_string(d.unit) + "}";
    }
    return out + "}";
  }

  /// The last line of a workload run: exactly correct/attempted/failed/
  /// metrics. A run with no operation reports attempted = 1, failed = 1.
  [[nodiscard]] std::string result_json() const {
    std::uint64_t attempted = 0, failed = 0;
    bool correct = false;
    {
      std::lock_guard lock(mutex_);
      attempted = std::max<std::uint64_t>(attempted_, 1);
      failed = attempted_ == 0 ? 1 : failed_;
      correct = correct_ && attempted_ > 0;
    }
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metrics_json() + "}";
  }

  /// The richer record `--json` files keep: the result plus sample counts.
  [[nodiscard]] std::string record_json() const {
    std::string samples = "{";
    {
      std::lock_guard lock(mutex_);
      bool first = true;
      for (const auto& [what, n] : sample_counts_) {
        samples += (first ? "" : ", ") + json_string(what) + ": " +
                   std::to_string(n);
        first = false;
      }
    }
    samples += "}";
    std::string result = result_json();
    result.pop_back();  // reopen the object to append fields.
    return result + ", \"workload\": " + json_string(workload_) +
           ", \"traced\": " + (traced_ ? "true" : "false") +
           ", \"samples\": " + samples + "}";
  }

 private:
  /// The metrics this run reports; none once withheld.
  [[nodiscard]] const std::vector<MetricDef>& catalog_locked() const {
    static const std::vector<MetricDef> none;
    if (withheld_) return none;
    return traced_ ? per_layer_catalog() : end_to_end_catalog();
  }
  [[nodiscard]] double value_locked(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void note_locked(std::string note) {
    if (notes_.size() < 20) notes_.push_back(std::move(note));
  }

  std::string workload_;
  bool traced_;
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
  std::map<std::string, std::size_t> sample_counts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  bool withheld_ = false;
  std::vector<std::string> notes_;
};

/// Sets the tail metric `name` to the p-th percentile of `s`, or to the
/// highest percentile its samples support (Samples::supported), and records
/// the percentile reported and the samples beyond it.
inline void set_percentile(Result& r, const std::string& name, const Samples& s,
                           double p) {
  const double level = s.supported(p);
  r.set(name, s.percentile(level));
  r.samples(name + "_at_pct", static_cast<std::size_t>(std::lround(100.0 * level)));
  r.samples(name + "_beyond", s.beyond(level));
}

/// Notes the run's median probe and the wall-clock median of each timing it
/// normalized, so that a reported time can be traced back to the clock.
inline void note_host(Result& r, const Samples& probes,
                      const std::vector<std::pair<std::string, const Samples*>>& walls) {
  std::string text = "host probe median " + json_number(probes.median()) +
                     " s (reference " + json_number(kProbeReferenceS) + " s); wall medians:";
  for (const auto& [what, wall] : walls) {
    text += " " + what + " " + json_number(wall->median()) + " s";
  }
  r.note(text);
  r.samples("probe", probes.size());
}

// ------------------------------------------------------- registry deltas ---

/// Change of the process-global metrics registry since construction, so a
/// phase's counts belong to that phase only.
class RegistryDelta {
 public:
  RegistryDelta() : base_(take()) {}

  /// Counter delta, or observation-count delta of a histogram.
  [[nodiscard]] double count(const std::string& name) const {
    return static_cast<double>(field(name, false));
  }
  /// Histogram sum delta, in seconds.
  [[nodiscard]] double sum_s(const std::string& name) const {
    return static_cast<double>(field(name, true)) * 1e-9;
  }

 private:
  using Snapshot = std::map<std::string, obs::MetricSample>;
  static Snapshot take() {
    Snapshot out;
    for (obs::MetricSample& s : obs::MetricsRegistry::global().snapshot()) {
      std::string name = s.name;
      out.emplace(std::move(name), std::move(s));
    }
    return out;
  }
  [[nodiscard]] std::int64_t field(const std::string& name, bool sum) const {
    const Snapshot now = take();
    const auto read = [&](const Snapshot& snap) -> std::int64_t {
      const auto it = snap.find(name);
      if (it == snap.end()) return 0;
      return sum ? static_cast<std::int64_t>(it->second.sum_ns)
                 : it->second.value;
    };
    return read(now) - read(base_);
  }

  Snapshot base_;
};

// ----------------------------------------------------------------- misc ---

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// A scratch directory `<base>/<tag>-<pid>`, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& base, const std::string& tag)
      : path_(std::filesystem::path(base) /
              (tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// Samples of the traced run keyed by per-layer metric name: stage
/// durations and schedule shape counts. Each metric reports its median.
using LayerSamples = std::map<std::string, Samples>;

inline void set_medians(Result& r, const LayerSamples& layers) {
  for (const auto& [name, samples] : layers) r.set(name, samples.median());
}

/// Runs one layer call, adds its duration to `times[metric]`, and records
/// it as the bench-side span `span_name` ("bench.<layer>") annotated with
/// the metric name while a trace session is open.
template <typename Fn>
auto stage(LayerSamples& times, const char* span_name, const char* metric,
           Fn&& fn) {
  obs::TraceSpan span(span_name, metric);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    times[metric].add(seconds_since(t0));
  } else {
    auto out = fn();
    times[metric].add(seconds_since(t0));
    return out;
  }
}

/// How one workload process runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_dir;  ///< non-empty: the traced per-layer run.
  std::string tmp_dir = ".bench_e2e_tmp";

  [[nodiscard]] bool traced() const { return !trace_dir.empty(); }
  /// Set-ups per untraced run; setup_s is their median.
  [[nodiscard]] int setups() const { return smoke || traced() ? 1 : 3; }
};

/// Writes the traced run's artifacts: the Chrome trace of the session and
/// the per-layer metrics with sample counts.
inline void write_trace_outputs(const RunConfig& cfg, obs::TraceSession& session,
                                const Result& result) {
  std::filesystem::create_directories(cfg.trace_dir);
  const std::filesystem::path dir(cfg.trace_dir);
  {
    std::ofstream out(dir / (cfg.workload + ".trace.json"), std::ios::binary);
    out << session.chrome_json();
  }
  std::ofstream out(dir / (cfg.workload + ".layers.json"), std::ios::binary);
  out << result.record_json() << '\n';
}

}  // namespace a2a::e2e
