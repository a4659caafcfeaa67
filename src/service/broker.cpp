#include "service/broker.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a::service {

using Clock = std::chrono::steady_clock;

ScheduleBroker::ScheduleBroker(ScheduleCache* cache, ThreadPool* /*pool*/)
    : cache_(cache) {}

std::optional<ArtifactView> ScheduleBroker::try_lookup(
    const std::string& fingerprint) {
  if (cache_ == nullptr) return std::nullopt;
  auto view = cache_->lookup_artifact(fingerprint);
  if (view.has_value()) {
    if (view->from_disk) {
      A2A_COUNTER("service.artifact_hits").inc();
    } else {
      A2A_COUNTER("service.hot_hits").inc();
    }
  }
  return view;
}

BrokerResult ScheduleBroker::request(const std::string& fingerprint,
                                     const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options,
                                     double budget_s) {
  if (auto view = try_lookup(fingerprint)) {
    return BrokerResult{*view, /*hit=*/true, /*coalesced=*/false, 0.0};
  }
  A2A_COUNTER("service.misses").inc();

  std::promise<ArtifactView> promise;  // used by the leader only.
  std::shared_future<ArtifactView> future;
  bool leader = false;
  {
    std::lock_guard lock(mutex_);
    auto it = inflight_.find(fingerprint);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      leader = true;
      future = promise.get_future().share();
      inflight_.emplace(fingerprint, future);
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
    if (budget_s > 0.0 && budget_s <= kMaxBudgetSeconds &&
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
      std::lock_guard lock(mutex_);
      inflight_.erase(fingerprint);
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
        cache_ != nullptr ? cache_->insert(fingerprint, schedule)
                          : std::make_shared<const std::string>(
                                generated_schedule_to_bytes(schedule));
    ArtifactView view = parse_schedule_envelope(*bytes);
    view.bytes = std::move(bytes);
    promise.set_value(view);
    {
      std::lock_guard lock(mutex_);
      inflight_.erase(fingerprint);
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
      std::lock_guard lock(mutex_);
      inflight_.erase(fingerprint);
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
  std::lock_guard lock(mutex_);
  return inflight_.size();
}

}  // namespace a2a::service
