// Fixed-size worker pool. The library's compute loops run on one
// process-wide instance, ThreadPool::shared(): the N per-source child
// problems of the decomposed MCF (§3.1.2) and failover precompute's
// per-signature syntheses. However many syntheses run at once, they share
// its hardware-concurrency workers.
//
// A parallel_for called from one of the pool's own workers runs inline on
// that worker: nested loops neither oversubscribe the cores nor deadlock
// the pool, and a solve issued from inside a pool task runs its loop on
// one thread. A task must not otherwise block on other tasks of the same
// pool — if every worker waited on work still queued behind it, nothing
// would run that work.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace a2a {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool of hardware-concurrency workers, started on
  /// first use and never destroyed.
  [[nodiscard]] static ThreadPool& shared();

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// iterations finish; on one of this pool's workers, runs them inline.
  /// Exceptions from tasks are captured and the first one is rethrown on
  /// the calling thread; once a task has thrown, workers may skip
  /// iterations that have not started yet (the results would be discarded
  /// by the rethrow anyway).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace a2a
