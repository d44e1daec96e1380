#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/logging.h"

namespace autofp {

namespace {

/// The pool whose worker this thread is; null off every pool.
thread_local ThreadPool* current_pool = nullptr;

}  // namespace

struct ThreadPool::Help {
  const std::function<void(size_t)>* fn = nullptr;
  size_t count = 0;
  std::atomic<size_t> next{0};
  /// Helpers taken off the queue by a worker; guarded by the pool mutex,
  /// so it is final once the caller has removed the unstarted ones.
  size_t started = 0;
  std::mutex mutex;
  std::condition_variable done;
  size_t finished = 0;  ///< Guarded by `mutex`.

  /// Claims and runs indices until none are left.
  void Drain() {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      (*fn)(i);
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  AUTOFP_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t index, int worker)>& fn) {
  if (count == 0) return;
  Batch batch;
  batch.fn = &fn;
  batch.remaining = count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < count; ++i) {
      queue_.push_back(Task{&batch, nullptr, i});
    }
  }
  work_available_.notify_all();
  std::unique_lock<std::mutex> batch_lock(batch.mutex);
  batch.done.wait(batch_lock, [&batch] { return batch.remaining == 0; });
}

void ThreadPool::HelpFor(size_t count,
                         const std::function<void(size_t)>& fn) {
  ThreadPool* pool = current_pool;
  if (pool == nullptr || pool->num_threads() == 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const size_t helpers =
      std::min(count, static_cast<size_t>(pool->num_threads())) - 1;
  Help help;
  help.fn = &fn;
  help.count = count;
  {
    std::lock_guard<std::mutex> lock(pool->mutex_);
    for (size_t h = 0; h < helpers; ++h) {
      pool->queue_.push_back(Task{nullptr, &help, 0});
    }
  }
  pool->work_available_.notify_all();
  help.Drain();
  size_t started = 0;
  {
    std::lock_guard<std::mutex> lock(pool->mutex_);
    std::erase_if(pool->queue_,
                  [&help](const Task& task) { return task.help == &help; });
    started = help.started;
  }
  // Notify happens under `help.mutex` (see WorkerLoop), so `help` outlives
  // every helper's last touch of it.
  std::unique_lock<std::mutex> help_lock(help.mutex);
  help.done.wait(help_lock,
                 [&help, started] { return help.finished == started; });
}

void ThreadPool::WorkerLoop(int worker) {
  current_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with no work left.
      task = queue_.front();
      queue_.pop_front();
      if (task.help != nullptr) ++task.help->started;
    }
    const auto start = std::chrono::steady_clock::now();
    if (task.help != nullptr) {
      task.help->Drain();
    } else {
      (*task.batch->fn)(task.index, worker);
    }
    // Counted before the task reports done, so a caller that returns
    // from ParallelFor reads its tasks' time.
    const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    busy_ns_.fetch_add(static_cast<uint64_t>(busy.count()),
                       std::memory_order_relaxed);
    if (task.help != nullptr) {
      std::lock_guard<std::mutex> lock(task.help->mutex);
      ++task.help->finished;
      task.help->done.notify_all();
      continue;
    }
    {
      // Notify while holding the batch mutex: the caller's wait can only
      // observe remaining == 0 (and destroy the Batch) after this lock is
      // released, so the condition_variable is never touched after its
      // owner returned.
      std::lock_guard<std::mutex> lock(task.batch->mutex);
      if (--task.batch->remaining == 0) task.batch->done.notify_all();
    }
  }
}

}  // namespace autofp
