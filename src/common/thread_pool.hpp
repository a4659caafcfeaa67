// Fixed-size worker pool used to parallelize the N child LPs of the
// decomposed MCF (§3.1.2) and other embarrassingly parallel sweeps.
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

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// iterations finish. Exceptions from tasks are captured and the first one
  /// is rethrown on the calling thread; once a task has thrown, workers may
  /// skip iterations that have not started yet (the results would be
  /// discarded by the rethrow anyway).
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
