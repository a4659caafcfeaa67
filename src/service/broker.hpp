// ScheduleBroker — the middle layer of the schedule service, between the
// admission queue and generate_schedule()'s fingerprint-first split.
//
// The broker owns two behaviours the one-shot pipeline never needed:
//
//   * request coalescing: concurrent requests for the same fingerprint
//     collapse into ONE synthesis. The first caller (the leader) runs the
//     LP/MCF pipeline inline; everyone else parks on a shared_future and is
//     handed the same artifact bytes. A leader failure propagates to every
//     waiter and clears the slot so a later request retries.
//   * zero-copy hits: results are served as ArtifactViews straight from the
//     ScheduleCache — its memory tier (the heap envelope insert() wrote, or
//     a promoted disk object's mmap) or else its disk tier — so the hot
//     path never decodes a schedule, and the transport writes schedbin()
//     bytes straight out. The broker holds no copy of its own.
//
// Thread-safe; the ScheduleCache must outlive the broker.
#pragma once

#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/api.hpp"
#include "core/schedule_cache.hpp"

namespace a2a {
class ThreadPool;
}  // namespace a2a

namespace a2a::service {

struct BrokerResult {
  ArtifactView view;
  /// Served from the cache without running the pipeline.
  bool hit = false;
  /// This caller waited on another request's in-flight synthesis.
  bool coalesced = false;
  /// Pipeline wall time (leader only; 0 for hits and coalesced waiters).
  double synth_seconds = 0.0;
};

class ScheduleBroker {
 public:
  /// `cache` may be null: then every request synthesizes (still coalesced,
  /// still served as bytes). `pool` is unused and may be null; it is kept
  /// so existing callers compile unchanged.
  ScheduleBroker(ScheduleCache* cache, ThreadPool* pool);

  ScheduleBroker(const ScheduleBroker&) = delete;
  ScheduleBroker& operator=(const ScheduleBroker&) = delete;

  /// Fast path only: the cache's zero-copy artifact lookup. Never
  /// synthesizes, never blocks on another request. nullopt on miss.
  [[nodiscard]] std::optional<ArtifactView> try_lookup(
      const std::string& fingerprint);

  /// Full path: try_lookup, then coalesced synthesis on miss. `budget_s`
  /// bounds a COALESCED waiter's wait (<= 0 or above kMaxBudgetSeconds:
  /// wait forever); the leader's
  /// own synthesis is bounded by whatever deadline the caller threaded into
  /// options.mcf.lp.time_limit_s and options.mcf.fptas.time_limit_s. Throws
  /// SolverError when the wait or the synthesis exceeds its budget, and
  /// rethrows leader failures to every waiter.
  [[nodiscard]] BrokerResult request(const std::string& fingerprint,
                                     const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options,
                                     double budget_s = 0.0);

  /// Convenience overload computing the fingerprint itself.
  [[nodiscard]] BrokerResult request(const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options = {},
                                     double budget_s = 0.0);

  /// Syntheses currently in flight (leaders running, not yet published).
  [[nodiscard]] std::size_t inflight() const;

 private:
  ScheduleCache* cache_;
  mutable std::mutex mutex_;
  /// fingerprint -> the future every coalesced waiter parks on. An entry
  /// exists exactly while a leader is synthesizing. Guarded by mutex_.
  std::unordered_map<std::string, std::shared_future<ArtifactView>> inflight_;
};

}  // namespace a2a::service
