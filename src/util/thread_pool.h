#ifndef AUTOFP_UTIL_THREAD_POOL_H_
#define AUTOFP_UTIL_THREAD_POOL_H_

/// The one worker pool: a fixed set of threads that runs index-parallel
/// loops. The search engine fans a round of pipeline evaluations out over
/// it (the paper's Section 5.3 shows Prep + Train dominate every search),
/// and the Predictor shards big serving batches over it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autofp {

/// Fixed-size pool of `num_threads` worker threads. Callers block in
/// ParallelFor while the workers run the loop body; in ParallelFor the
/// calling thread does no loop work itself. HelpFor is the one call that
/// may run inside a pool task: its caller runs inner indices itself and
/// only borrows workers that are idle, so it never waits for a free
/// worker and nesting cannot deadlock.
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

  /// Runs `fn(index)` once for every index in [0, count) and returns when
  /// all have finished. Called from a worker of some pool, it queues at
  /// most min(count - 1, num_threads - 1) helper tasks on that pool; the
  /// caller and whichever helpers start claim indices from one counter.
  /// Once the indices run out the caller takes its unstarted helpers off
  /// the queue and waits only for helpers already running. Anywhere else,
  /// or on a one-thread pool, it is a plain loop on the caller. Callers
  /// reach the pool through a thread-local, so library code (a
  /// preprocessor's per-column fit) spreads over idle workers without a
  /// pool being passed to it. `fn` gets no worker id: indices must not
  /// share per-worker scratch.
  static void HelpFor(size_t count, const std::function<void(size_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Wall time of every task the workers have run, summed: ParallelFor
  /// indices and HelpFor helpers alike (a HelpFor caller's own indices
  /// count inside the task it runs in). Divided by num_threads() times
  /// the elapsed time, it is the pool's utilisation.
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  /// Per-ParallelFor completion state, shared by that call's tasks.
  struct Batch {
    const std::function<void(size_t, int)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable done;
    size_t remaining = 0;
  };
  /// Per-HelpFor state, shared by the caller and its helper tasks.
  struct Help;
  /// One queued unit: index `index` of a ParallelFor batch, or (when
  /// `help` is set) one helper of a HelpFor call.
  struct Task {
    Batch* batch = nullptr;
    Help* help = nullptr;
    size_t index = 0;
  };

  void WorkerLoop(int worker);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::atomic<uint64_t> busy_ns_{0};
  std::vector<std::thread> workers_;
};

}  // namespace autofp

#endif  // AUTOFP_UTIL_THREAD_POOL_H_
