#include "util/thread_pool.h"

#include "util/logging.h"

namespace autofp {

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
    for (size_t i = 0; i < count; ++i) queue_.push_back(Task{&batch, i});
  }
  work_available_.notify_all();
  std::unique_lock<std::mutex> batch_lock(batch.mutex);
  batch.done.wait(batch_lock, [&batch] { return batch.remaining == 0; });
}

void ThreadPool::WorkerLoop(int worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with no work left.
      task = queue_.front();
      queue_.pop_front();
    }
    (*task.batch->fn)(task.index, worker);
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
