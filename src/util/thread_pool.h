#ifndef AUTOFP_UTIL_THREAD_POOL_H_
#define AUTOFP_UTIL_THREAD_POOL_H_

/// The one worker pool: a fixed set of threads that runs index-parallel
/// loops. The search engine fans a round of pipeline evaluations out over
/// it (the paper's Section 5.3 shows Prep + Train dominate every search),
/// and the Predictor shards big serving batches over it.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autofp {

/// Fixed-size pool of `num_threads` worker threads. Callers block in
/// ParallelFor while the workers run the loop body; the calling thread
/// does no loop work itself.
class ThreadPool {
 public:
  /// Starts `num_threads` >= 1 workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `fn(index, worker)` once for every index in [0, count) and
  /// returns when all have finished. `worker` in [0, num_threads()) names
  /// the thread running the call, so a caller can keep one scratch buffer
  /// per worker: a worker runs one call at a time. Concurrent callers
  /// share the workers. `fn` must not call ParallelFor on the same pool:
  /// a worker blocked in the inner call can never run the inner tasks,
  /// so the pool deadlocks once every worker is waiting.
  void ParallelFor(size_t count,
                   const std::function<void(size_t index, int worker)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  /// Per-ParallelFor completion state, shared by that call's tasks.
  struct Batch {
    const std::function<void(size_t, int)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable done;
    size_t remaining = 0;
  };
  struct Task {
    Batch* batch = nullptr;
    size_t index = 0;
  };

  void WorkerLoop(int worker);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace autofp

#endif  // AUTOFP_UTIL_THREAD_POOL_H_
