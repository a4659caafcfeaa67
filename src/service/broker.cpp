#include "service/broker.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a::service {

using Clock = std::chrono::steady_clock;

struct ScheduleBroker::State {
  ScheduleCache* cache = nullptr;
  ThreadPool* pool = nullptr;
  BrokerOptions options;

  std::mutex mutex;
  struct HotEntry {
    ArtifactView view;
    Clock::time_point validated;
    bool refreshing = false;  ///< a background revalidation is queued.
    std::list<std::string>::iterator lru_it;
  };
  /// Hot-view LRU (MRU-first list + map, same pairing as ScheduleCache's
  /// memory tier). Guarded by mutex.
  std::unordered_map<std::string, HotEntry> hot;
  std::list<std::string> lru;
  /// fingerprint -> the future every coalesced waiter parks on. An entry
  /// exists exactly while a leader is synthesizing. Guarded by mutex.
  std::unordered_map<std::string, std::shared_future<ArtifactView>> inflight;
};

namespace {

/// Installs (or re-validates) a hot view. Caller must NOT hold state.mutex.
void insert_hot(ScheduleBroker::State& state, const std::string& fingerprint,
                const ArtifactView& view) {
  if (state.options.hot_capacity == 0) return;
  std::lock_guard lock(state.mutex);
  auto it = state.hot.find(fingerprint);
  if (it != state.hot.end()) {
    it->second.view = view;
    it->second.validated = Clock::now();
    state.lru.splice(state.lru.begin(), state.lru, it->second.lru_it);
    return;
  }
  state.lru.push_front(fingerprint);
  state.hot.emplace(fingerprint,
                    ScheduleBroker::State::HotEntry{view, Clock::now(), false,
                                                    state.lru.begin()});
  while (state.hot.size() > state.options.hot_capacity) {
    const std::string victim = state.lru.back();
    state.lru.pop_back();
    state.hot.erase(victim);
    A2A_COUNTER("service.hot_evictions").inc();
  }
}

/// Queues a background revalidation of a hot view against the cache.
/// Captures the broker state by shared_ptr, so the task outlives the broker
/// safely; the cache must outlive the pool (documented lifetime rule).
void queue_refresh(const std::shared_ptr<ScheduleBroker::State>& state,
                   const std::string& fingerprint) {
  state->pool->submit([state, fingerprint] {
    std::optional<ArtifactView> fresh;
    try {
      fresh = state->cache->lookup_artifact(fingerprint);
    } catch (const std::exception&) {
      // Treated as "artifact gone"; the entry is dropped below.
    }
    std::lock_guard lock(state->mutex);
    auto it = state->hot.find(fingerprint);
    if (it == state->hot.end()) return;  // evicted while we looked.
    it->second.refreshing = false;
    if (fresh) {
      it->second.view = *fresh;
      it->second.validated = Clock::now();
      A2A_COUNTER("service.refreshes").inc();
    } else {
      // The cache no longer resolves this fingerprint (GC, quarantine):
      // drop the hot view so the next request re-synthesizes instead of
      // serving bytes the rest of the fleet can no longer see.
      state->lru.erase(it->second.lru_it);
      state->hot.erase(it);
      A2A_COUNTER("service.refresh_drops").inc();
    }
  });
}

}  // namespace

ScheduleBroker::ScheduleBroker(ScheduleCache* cache, ThreadPool* pool,
                               BrokerOptions options)
    : state_(std::make_shared<State>()) {
  state_->cache = cache;
  state_->pool = pool;
  state_->options = options;
}

std::optional<ArtifactView> ScheduleBroker::try_lookup(
    const std::string& fingerprint) {
  State& state = *state_;
  {
    std::lock_guard lock(state.mutex);
    auto it = state.hot.find(fingerprint);
    if (it != state.hot.end()) {
      state.lru.splice(state.lru.begin(), state.lru, it->second.lru_it);
      A2A_COUNTER("service.hot_hits").inc();
      const bool stale =
          state.options.refresh_age_s > 0.0 &&
          std::chrono::duration<double>(Clock::now() - it->second.validated)
                  .count() > state.options.refresh_age_s;
      if (stale && !it->second.refreshing && state.pool != nullptr &&
          state.cache != nullptr) {
        it->second.refreshing = true;
        queue_refresh(state_, fingerprint);
      }
      return it->second.view;
    }
  }
  if (state.cache != nullptr) {
    if (auto artifact = state.cache->lookup_artifact(fingerprint)) {
      A2A_COUNTER("service.artifact_hits").inc();
      insert_hot(state, fingerprint, *artifact);
      return artifact;
    }
  }
  return std::nullopt;
}

BrokerResult ScheduleBroker::request(const std::string& fingerprint,
                                     const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options,
                                     double budget_s) {
  A2A_COUNTER("service.requests").inc();
  if (auto view = try_lookup(fingerprint)) {
    return BrokerResult{*view, /*hit=*/true, /*coalesced=*/false, 0.0};
  }
  A2A_COUNTER("service.misses").inc();

  State& state = *state_;
  std::promise<ArtifactView> promise;  // used by the leader only.
  std::shared_future<ArtifactView> future;
  bool leader = false;
  {
    std::lock_guard lock(state.mutex);
    auto it = state.inflight.find(fingerprint);
    if (it != state.inflight.end()) {
      future = it->second;
    } else {
      leader = true;
      future = promise.get_future().share();
      state.inflight.emplace(fingerprint, future);
    }
  }

  if (!leader) {
    // Coalesced waiter. The leader is by construction RUNNING (leadership is
    // claimed inside this function, never while queued), so waiting here can
    // never deadlock a worker pool. The wait is budget-bounded; the leader's
    // own synthesis deadline is whatever the leader threaded into its
    // options, which may differ from ours.
    A2A_COUNTER("service.coalesced").inc();
    A2A_TRACE_SPAN("service.coalesced_wait", fingerprint);
    if (budget_s > 0.0 &&
        future.wait_for(std::chrono::duration<double>(budget_s)) !=
            std::future_status::ready) {
      throw SolverError(
          "schedule service: deadline expired waiting on coalesced "
          "synthesis (time-limit)");
    }
    return BrokerResult{future.get(), /*hit=*/false, /*coalesced=*/true, 0.0};
  }

  // A previous leader may have finished between our lookup and our claim:
  // it stores its artifact before it clears its in-flight slot, so look
  // again before synthesizing the same schedule a second time.
  if (auto view = try_lookup(fingerprint)) {
    promise.set_value(*view);
    {
      std::lock_guard lock(state.mutex);
      state.inflight.erase(fingerprint);
    }
    return BrokerResult{*view, /*hit=*/true, /*coalesced=*/false, 0.0};
  }

  // Leader: run the pipeline inline, publish the artifact to every waiter.
  A2A_COUNTER("service.syntheses").inc();
  const auto synth_start = Clock::now();
  try {
    const GeneratedSchedule schedule =
        synthesize_schedule(topology, fabric, options);
    std::shared_ptr<const std::string> bytes =
        state.cache != nullptr
            ? state.cache->insert(fingerprint, schedule)
            : std::make_shared<const std::string>(
                  generated_schedule_to_bytes(schedule));
    ArtifactView view = parse_schedule_envelope(*bytes);
    view.bytes = std::move(bytes);
    insert_hot(state, fingerprint, view);
    promise.set_value(view);
    {
      std::lock_guard lock(state.mutex);
      state.inflight.erase(fingerprint);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - synth_start).count();
    A2A_HISTOGRAM("service.synth_seconds").observe_seconds(seconds);
    return BrokerResult{std::move(view), /*hit=*/false, /*coalesced=*/false,
                        seconds};
  } catch (...) {
    A2A_COUNTER("service.synth_failures").inc();
    // Erase BEFORE publishing the failure: requests arriving after the
    // erase start a fresh synthesis instead of inheriting this error;
    // waiters already parked get the exception rethrown from get().
    {
      std::lock_guard lock(state.mutex);
      state.inflight.erase(fingerprint);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

BrokerResult ScheduleBroker::request(const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options,
                                     double budget_s) {
  return request(schedule_fingerprint(topology, fabric, options), topology,
                 fabric, options, budget_s);
}

std::size_t ScheduleBroker::inflight() const {
  std::lock_guard lock(state_->mutex);
  return state_->inflight.size();
}

std::size_t ScheduleBroker::hot_size() const {
  std::lock_guard lock(state_->mutex);
  return state_->hot.size();
}

}  // namespace a2a::service
