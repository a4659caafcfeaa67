#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace a2a::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace detail

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Histogram::quantile_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, ceil) under relaxed snapshots:
  // q=0.5 over 5 observations must pick the 3rd, not the 2nd.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) return bucket_bound_ns(b);
  }
  return bucket_bound_ns(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

// ---- registry ---------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  struct Slot {
    MetricKind kind;
    // One live pointer per slot; unique_ptrs keep addresses stable while the
    // map rehashes/rebalances.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::map<std::string, Slot> slots;  ///< ordered: snapshots come out sorted.
};

MetricsRegistry& MetricsRegistry::global() {
  // Leaked singleton: metric references must stay valid through static
  // destruction (worker threads and exit paths may still update them).
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard lock(im.mutex);
  auto [it, inserted] = im.slots.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kCounter;
    it->second.counter = std::make_unique<Counter>();
  }
  A2A_ASSERT(it->second.kind == MetricKind::kCounter,
             "metric '", name, "' already registered with a different kind");
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard lock(im.mutex);
  auto [it, inserted] = im.slots.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kGauge;
    it->second.gauge = std::make_unique<Gauge>();
  }
  A2A_ASSERT(it->second.kind == MetricKind::kGauge,
             "metric '", name, "' already registered with a different kind");
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard lock(im.mutex);
  auto [it, inserted] = im.slots.try_emplace(name);
  if (inserted) {
    it->second.kind = MetricKind::kHistogram;
    it->second.histogram = std::make_unique<Histogram>();
  }
  A2A_ASSERT(it->second.kind == MetricKind::kHistogram,
             "metric '", name, "' already registered with a different kind");
  return *it->second.histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard lock(im.mutex);
  std::vector<MetricSample> out;
  out.reserve(im.slots.size());
  for (const auto& [name, slot] : im.slots) {
    MetricSample s;
    s.name = name;
    s.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<std::int64_t>(slot.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = slot.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *slot.histogram;
        s.value = static_cast<std::int64_t>(h.count());
        s.sum_ns = h.sum_ns();
        s.p50_ns = h.quantile_ns(0.5);
        s.p99_ns = h.quantile_ns(0.99);
        s.buckets.resize(Histogram::kBuckets);
        int last = -1;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          s.buckets[static_cast<std::size_t>(b)] = h.bucket(b);
          if (s.buckets[static_cast<std::size_t>(b)] != 0) last = b;
        }
        s.buckets.resize(static_cast<std::size_t>(last + 1));
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const std::vector<MetricSample> samples = snapshot();
  std::ostringstream os;
  os << "{";
  bool first = true;
  const auto emit = [&](const std::string& key, std::uint64_t value) {
    if (!first) os << ",";
    first = false;
    os << "\n  \"" << key << "\": " << value;
  };
  for (const MetricSample& s : samples) {
    if (s.kind == MetricKind::kHistogram) {
      emit(s.name + ".count", static_cast<std::uint64_t>(s.value));
      emit(s.name + ".sum_ns", s.sum_ns);
      emit(s.name + ".p50_ns", s.p50_ns);
      emit(s.name + ".p99_ns", s.p99_ns);
    } else if (s.kind == MetricKind::kGauge) {
      if (!first) os << ",";
      first = false;
      os << "\n  \"" << s.name << "\": " << s.value;
    } else {
      emit(s.name, static_cast<std::uint64_t>(s.value));
    }
  }
  os << (first ? "}" : "\n}");
  os << "\n";
  return os.str();
}

std::string metrics_json() {
  std::string json = MetricsRegistry::global().to_json();
  while (!json.empty() &&
         std::isspace(static_cast<unsigned char>(json.back()))) {
    json.pop_back();
  }
  return json;
}

void write_metrics_json(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  A2A_REQUIRE(out.good(), "cannot open metrics file: ", path);
  out << MetricsRegistry::global().to_json();
  A2A_REQUIRE(out.good(), "short write to metrics file: ", path);
}

void print_metrics_table(std::ostream& os) {
  Table table({"metric", "kind", "value", "sum_ms", "p50_ms", "p99_ms"});
  for (const MetricSample& s : MetricsRegistry::global().snapshot()) {
    table.row().cell(s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        table.cell("counter").cell(static_cast<long long>(s.value));
        table.cell("-").cell("-").cell("-");
        break;
      case MetricKind::kGauge:
        table.cell("gauge").cell(static_cast<long long>(s.value));
        table.cell("-").cell("-").cell("-");
        break;
      case MetricKind::kHistogram:
        table.cell("histogram").cell(static_cast<long long>(s.value));
        table.cell(static_cast<double>(s.sum_ns) / 1e6, 3);
        table.cell(static_cast<double>(s.p50_ns) / 1e6, 3);
        table.cell(static_cast<double>(s.p99_ns) / 1e6, 3);
        break;
    }
  }
  table.print(os);
}

}  // namespace a2a::obs
