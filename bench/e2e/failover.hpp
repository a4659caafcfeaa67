// failover-gk27: fault event -> first valid schedule, through the
// FailoverManager's precomputed library and its deadline-bounded ladder.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/random.hpp"
#include "failover/manager.hpp"
#include "synth.hpp"

namespace a2a::e2e {

inline constexpr double kFailoverDeadline = 0.25;
inline constexpr std::size_t kLibrarySize = 32;
/// Events of each class a run holds at least, so that each p90 has 10
/// events beyond it.
inline constexpr std::size_t kMinPerClass = 100;
/// Two-link failures a run draws its novel events from first: a few more
/// than a run uses, so that runs of different seeds share most of them.
inline constexpr std::size_t kNovelPool = 144;

/// Runs the failover-gk27 workload.
///
/// Set-up builds a FailoverManager on GenKautz(27,4) with the exact healthy
/// baseline and precomputes 32 fixed single-link signatures. The stream is
/// a closed loop in which half the events are library signatures and half
/// are novel two-link failures, which the ladder must synthesize under a
/// 250 ms deadline. The two alternate: real faults arrive far apart, so no
/// event finds the caches warm from one just like it. Library events cycle
/// through the library in seeded orders, so every run serves each
/// signature about equally often. Novel failures come from a fixed pool in
/// seeded order, then, if a run outlasts it, are drawn at random; none
/// repeats, since the exact rung stores what it serves in the library.
/// Events are classed by whether they were precomputed, a property of the
/// input, not by the rung that happened to serve them.
class FailoverWorkload {
 public:
  FailoverWorkload(const RunConfig& cfg, Result& r)
      : cfg_(cfg), r_(r), healthy_(make_generalized_kautz(27, 4)),
        fabric_(hpc_cerio_fabric()), rng_(cfg.seed * 6364136223846793005ULL + 3) {
    // The library and the novel pool are part of the workload, not of the
    // seed: which failures a run sees decides the quality served, so with
    // them seeded bound_ratio moved with the seed's draw. The seed orders
    // the stream.
    std::vector<EdgeId> edges(static_cast<std::size_t>(healthy_.num_edges()));
    for (std::size_t e = 0; e < edges.size(); ++e) edges[e] = static_cast<EdgeId>(e);
    Rng order(0x5eed);
    order.shuffle(edges);
    for (const EdgeId e : edges) {
      if (library_.size() == kLibrarySize) break;
      FailureSignature sig;
      sig.edges = {e};
      sig.normalize();
      if (schedulable(sig)) library_.push_back(sig);
    }
    std::set<std::string> pooled;
    while (novel_pool_.size() < kNovelPool) {
      FailureSignature sig = random_pair(order);
      if (pooled.insert(sig.to_string()).second && schedulable(sig)) {
        novel_pool_.push_back(std::move(sig));
      }
    }
    rng_.shuffle(novel_pool_);
  }

  ~FailoverWorkload() { teardown(); }
  FailoverWorkload(const FailoverWorkload&) = delete;
  FailoverWorkload& operator=(const FailoverWorkload&) = delete;

  struct SetupTimes {
    double init_s = 0.0;
    double precompute_s = 0.0;
  };

  /// A fresh manager over an empty library directory, then the precompute.
  SetupTimes setup() {
    teardown();
    SetupTimes out;
    dir_ = std::make_unique<ScratchDir>(cfg_.tmp_dir, cfg_.workload);
    FailoverOptions options;
    options.library_dir = dir_->sub("library");
    out.init_s = timed([&] {
      manager_ = std::make_unique<FailoverManager>(healthy_, fabric_, options);
    });
    PrecomputeReport report;
    out.precompute_s = timed([&] { report = manager_->precompute(library_); });
    r_.attempted(report.attempted);
    for (std::size_t i = report.stored; i < report.attempted; ++i) {
      r_.failed("precompute did not store a library signature");
    }
    return out;
  }

  /// What one stream phase measured: latencies by event class, the
  /// ladder's own time to a valid schedule for novel events, and the
  /// quality of the schedules served.
  ///
  /// Library events are compute-bound, so they are host-normalized by the
  /// probes around their pair. Novel events are not: the ladder spends set
  /// shares of the 250 ms deadline on its rungs, so their time follows the
  /// deadline, and a slow host shows as fewer exact-rung results and a
  /// lower bound_ratio instead. Normalizing them would scale a fixed budget
  /// by the host's speed; over ten seeds their wall times spread by 1-2%,
  /// their normalized times by 9%.
  struct Phase {
    Samples hit;  ///< host-normalized.
    Samples hit_wall, novel, novel_elapsed, validate;  ///< as the clock read.
    Samples probes;
    std::map<FailoverRung, Samples> novel_by_rung;
    double ratio_sum = 0.0;
    double gbps_sum = 0.0;
    std::size_t served = 0;

    [[nodiscard]] double mean_ratio() const { return mean(ratio_sum); }
    [[nodiscard]] double mean_gbps() const { return mean(gbps_sum); }
    [[nodiscard]] double mean(double sum) const {
      return served == 0 ? 0.0 : sum / static_cast<double>(served);
    }
  };

  /// Runs the stream for `seconds`, and on until each class holds
  /// `min_per_class` events. Each pair runs between two probes, which
  /// normalize its library event. A pair's schedules are checked after the pair,
  /// so no check runs between a failure and the event after it.
  Phase stream(double seconds, std::size_t min_per_class) {
    Phase p;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds || p.novel.size() < min_per_class) {
      ProbeBracket bracket(p.probes);
      const FailureSignature novel = next_novel();
      const Event novel_event = event(novel, false);
      const FailureSignature hit = next_library();
      const Event hit_event = event(hit, true);
      const double probe_s = bracket.end();
      record(novel_event, false, probe_s, p);
      record(hit_event, true, probe_s, p);
      check(novel, novel_event.result, p);
      check(hit, hit_event.result, p);
    }
    return p;
  }

 private:
  [[nodiscard]] bool schedulable(const FailureSignature& sig) const {
    const DiGraph degraded = degraded_topology(healthy_, sig);
    return terminals_mutually_reachable(
        degraded, surviving_terminals(all_nodes(healthy_), sig));
  }

  FailureSignature next_library() {
    if (library_order_.empty()) {
      library_order_ = library_;
      rng_.shuffle(library_order_);
    }
    FailureSignature sig = std::move(library_order_.back());
    library_order_.pop_back();
    return sig;
  }

  FailureSignature random_pair(Rng& rng) const {
    for (;;) {
      const EdgeId a = rng.next_int(0, healthy_.num_edges());
      const EdgeId b = rng.next_int(0, healthy_.num_edges());
      if (a == b) continue;
      FailureSignature sig;
      sig.edges = {a, b};
      sig.normalize();
      return sig;
    }
  }

  /// A two-link signature not seen before in this process whose survivors
  /// stay mutually reachable: the next of the pool, then a random one.
  FailureSignature next_novel() {
    for (;;) {
      FailureSignature sig;
      if (novel_pool_.empty()) {
        sig = random_pair(rng_);
      } else {
        sig = std::move(novel_pool_.back());
        novel_pool_.pop_back();
      }
      if (used_.insert(sig.to_string()).second && schedulable(sig)) return sig;
    }
  }

  struct Event {
    FailoverResult result;
    double seconds = 0.0;  ///< wall seconds from the fault to the result.
  };

  Event event(const FailureSignature& sig, bool precomputed) {
    Event e;
    obs::TraceSpan span("bench.failover", precomputed ? "precomputed" : "novel");
    e.seconds = timed([&] { e.result = manager_->reschedule(sig, kFailoverDeadline); });
    return e;
  }

  /// Adds an event's timings to the phase; a library event's normalized
  /// by the probes around its pair.
  void record(const Event& e, bool precomputed, double probe_s, Phase& p) {
    r_.attempted();
    if (precomputed) {
      p.hit.add(normalized(e.seconds, probe_s));
      p.hit_wall.add(e.seconds);
    } else {
      p.novel.add(e.seconds);
      p.novel_elapsed.add(e.result.elapsed_s);
      p.novel_by_rung[e.result.rung].add(e.seconds);
    }
    p.validate.add(e.result.validate_s);
  }

  /// Validates a served schedule again, independently, on its degraded
  /// topology: the benchmark trusts nothing the ladder says about its own
  /// output.
  void check(const FailureSignature& sig, const FailoverResult& res, Phase& p) {
    if (!res.schedule.path) {
      r_.failed("no schedule served for " + sig.to_string());
      return;
    }
    const DiGraph degraded = degraded_topology(healthy_, sig);
    const PathSchedule& path = *res.schedule.path;
    const std::vector<NodeId>& terminals = res.schedule.terminals;
    if (!res.validated || !validate_path_schedule(degraded, path, terminals).ok) {
      r_.check_failed("schedule served for " + sig.to_string() +
                      " does not validate on the degraded topology");
      return;
    }
    p.ratio_sum += res.schedule.concurrent_flow *
                   time_lower_bound(degraded, terminals, nullptr);
    p.gbps_sum += simulate_path_schedule(degraded, path, kShardBytes,
                                         static_cast<int>(terminals.size()), fabric_)
                      .algo_throughput_GBps;
    ++p.served;
  }

  void teardown() {
    manager_.reset();
    dir_.reset();
  }

  const RunConfig& cfg_;
  Result& r_;
  DiGraph healthy_;
  Fabric fabric_;
  Rng rng_;
  std::vector<FailureSignature> library_;
  std::vector<FailureSignature> library_order_;  ///< the rest of this cycle.
  std::vector<FailureSignature> novel_pool_;     ///< the rest of the pool.
  std::set<std::string> used_;
  std::unique_ptr<ScratchDir> dir_;
  std::unique_ptr<FailoverManager> manager_;
};

inline void run_failover(const RunConfig& cfg, Result& r) {
  FailoverWorkload w(cfg, r);
  Samples setup, setup_probes, setup_wall;
  FailoverWorkload::SetupTimes last;
  for (int i = 0; i < cfg.setups(); ++i) {
    ProbeBracket bracket(setup_probes);
    last = w.setup();
    setup_wall.add(last.init_s + last.precompute_s);
    setup.add(normalized(last.init_s + last.precompute_s, bracket.end()));
  }

  if (!cfg.traced()) {
    FailoverWorkload::Phase p = w.stream(cfg.seconds, cfg.smoke ? 0 : kMinPerClass);
    r.set("setup_s", setup.median());
    r.set("synth_s", p.novel_elapsed.median());
    r.set("miss_p50_s", p.novel.median());
    set_percentile(r, "miss_p90_s", p.novel, 0.9);
    r.set("hit_p50_s", p.hit.median());
    r.set("bound_ratio", p.mean_ratio());
    r.set("algo_GBps", p.mean_gbps());
    r.set("peak_rss_MB", peak_rss_mb());
    r.samples("setup", setup.size());
    r.samples("miss", p.novel.size());
    r.samples("hit", p.hit.size());
    for (const auto& [rung, s] : p.novel_by_rung) {
      r.samples("miss_rung_" + to_string(rung), s.size());
    }
    p.probes.merge(setup_probes);
    note_host(r, p.probes, {{"set-up", &setup_wall}, {"library event", &p.hit_wall}});
    return;
  }

  const FailoverWorkload::Phase untraced = w.stream(cfg.seconds / 2, 0);
  obs::TraceSession session;
  const RegistryDelta delta;
  const FailoverWorkload::Phase traced = w.stream(cfg.seconds / 2, 0);
  session.stop();
  const auto rung_median = [&](FailoverRung rung) {
    const auto it = traced.novel_by_rung.find(rung);
    return it == traced.novel_by_rung.end() ? 0.0 : it->second.median();
  };
  const double ops = static_cast<double>(std::max<std::size_t>(traced.novel.size(), 1));
  r.set("failover.init_s", last.init_s);
  r.set("failover.precompute_s", last.precompute_s);
  r.set("failover.rung.hit", delta.count("failover.hit"));
  r.set("failover.rung.exact", delta.count("failover.exact"));
  r.set("failover.rung.fptas", delta.count("failover.fptas"));
  r.set("failover.rung.degraded", delta.count("failover.degraded"));
  r.set("failover.exact_s", rung_median(FailoverRung::kDualWarmExact));
  r.set("failover.fptas_s", rung_median(FailoverRung::kFptasAnytime));
  r.set("failover.validate_s", traced.validate.median());
  r.set("lp.solves", delta.count("lp.solves") / ops);
  r.set("lp.iterations", delta.count("lp.iterations") / ops);
  r.set("lp.refactorizations", delta.count("lp.refactorizations") / ops);
  r.set("lp.ft_updates", delta.count("lp.ft_updates") / ops);
  r.set("lp.solve_s", delta.sum_s("lp.solve.seconds") / ops);
  r.set("pool.tasks", delta.count("pool.tasks") / ops);
  // Novel events take the deadline's time traced or not, so the overhead
  // shows on library events.
  r.set("obs.trace_overhead", traced.hit.median() / untraced.hit.median() - 1.0);
  r.samples("novel_untraced", untraced.novel.size());
  r.samples("novel_traced", traced.novel.size());
  r.samples("hit_traced", traced.hit.size());
  write_trace_outputs(cfg, session, r);
}

}  // namespace a2a::e2e
