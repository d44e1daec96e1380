#include "serve/predictor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/timer.h"

namespace autofp {

void LatencyRecorder::Record(double seconds, long rows) {
  const int bucket = BucketIndex(seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[bucket] += 1;
  batches_ += 1;
  rows_ += rows;
  busy_seconds_ += seconds;
}

int LatencyRecorder::BucketIndex(double seconds) {
  if (!(seconds > 1e-6)) return 0;
  const int bucket =
      static_cast<int>(std::log(seconds / 1e-6) / std::log(kGrowth));
  return std::clamp(bucket, 0, kNumBuckets - 1);
}

double LatencyRecorder::BucketValueMs(int bucket) {
  // Geometric midpoint of the bucket, in milliseconds.
  return 1e-3 * std::pow(kGrowth, bucket + 0.5);
}

ServeStats LatencyRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeStats stats;
  stats.batches = batches_;
  stats.rows = rows_;
  stats.busy_seconds = busy_seconds_;
  stats.rows_per_second =
      busy_seconds_ > 0.0 ? static_cast<double>(rows_) / busy_seconds_ : 0.0;
  if (batches_ == 0) return stats;
  auto percentile = [this](double fraction) {
    const long target = static_cast<long>(
        std::ceil(fraction * static_cast<double>(batches_)));
    long seen = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      seen += counts_[b];
      if (seen >= target) return BucketValueMs(b);
    }
    return BucketValueMs(kNumBuckets - 1);
  };
  stats.p50_ms = percentile(0.50);
  stats.p95_ms = percentile(0.95);
  stats.p99_ms = percentile(0.99);
  return stats;
}

Predictor::LoadResult Predictor::Load(const std::string& path,
                                      const Options& options) {
  ArtifactReadResult read = ReadArtifact(path);
  if (!read.ok()) {
    // Fold the taxonomy name into the message so the single Status is
    // self-contained for callers that never look at artifact_error().
    Status status(read.status.code(),
                  std::string("[") + ArtifactErrorName(read.error) + "] " +
                      read.status.message());
    return LoadResult(read.error, std::move(status), nullptr);
  }
  return LoadResult(ArtifactError::kNone, Status::OK(),
                    FromArtifact(std::move(read.artifact), options));
}

std::unique_ptr<Predictor> Predictor::FromArtifact(LoadedArtifact artifact,
                                                   const Options& options) {
  return std::unique_ptr<Predictor>(
      new Predictor(std::move(artifact), options));
}

Predictor::Predictor(LoadedArtifact artifact, const Options& options)
    : schema_(std::move(artifact.schema)),
      pipeline_(FittedPipeline::FromFittedSteps(
          std::move(artifact.spec), std::move(artifact.fitted_steps))),
      model_config_(artifact.model_config),
      model_(std::move(artifact.model)),
      reference_stats_(std::move(artifact.reference_stats)) {
  AUTOFP_CHECK(model_ != nullptr);
  const int num_workers = std::max(options.num_threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Predictor::~Predictor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Predictor::WorkerLoop() {
  // Per-worker shard scratch, reused across every task this worker runs:
  // after the first few shards it has seen the largest shard shape and
  // scoring stops allocating.
  Matrix scratch;
  for (;;) {
    std::function<void(Matrix*)> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task(&scratch);
  }
}

Status Predictor::ValidateSchema(const Matrix& rows) const {
  if (rows.cols() != schema_.input_cols) {
    return Status::InvalidArgument(
        "serving rows have " + std::to_string(rows.cols()) +
        " columns, artifact schema expects " +
        std::to_string(schema_.input_cols) + " (dataset '" +
        schema_.dataset_name + "')");
  }
  return Status::OK();
}

void Predictor::ScoreRange(const Matrix& rows, size_t begin, size_t end,
                           std::vector<int>* predictions,
                           Matrix* scratch) const {
  Stopwatch watch;
  // Copy the shard into the reusable scratch and run the whole transform
  // chain through it in place — no per-shard or per-stage allocation once
  // the scratch has grown to the largest shard.
  scratch->Resize(end - begin, rows.cols());
  for (size_t r = begin; r < end; ++r) {
    const double* src = rows.RowPtr(r);
    std::copy(src, src + rows.cols(), scratch->RowPtr(r - begin));
  }
  pipeline_.TransformInPlace(*scratch);
  std::vector<int> shard_predictions = model_->PredictBatch(*scratch);
  std::copy(shard_predictions.begin(), shard_predictions.end(),
            predictions->begin() + static_cast<long>(begin));
  latency_.Record(watch.ElapsedSeconds(), static_cast<long>(end - begin));
}

Result<std::vector<int>> Predictor::Predict(const Matrix& rows) const {
  Status valid = ValidateSchema(rows);
  if (!valid.ok()) return valid;
  std::vector<int> predictions(rows.rows());
  if (rows.rows() > 0) {
    Matrix scratch;
    ScoreRange(rows, 0, rows.rows(), &predictions, &scratch);
  }
  return predictions;
}

Result<std::vector<int>> Predictor::PredictSharded(const Matrix& rows,
                                                   size_t batch_rows) const {
  Status valid = ValidateSchema(rows);
  if (!valid.ok()) return valid;
  if (batch_rows == 0) batch_rows = 1;
  std::vector<int> predictions(rows.rows());
  if (rows.rows() == 0) return predictions;
  if (workers_.empty() || rows.rows() <= batch_rows) {
    Matrix scratch;
    ScoreRange(rows, 0, rows.rows(), &predictions, &scratch);
    return predictions;
  }

  // Per-call barrier (the parallel_evaluator pattern): enqueue one task
  // per shard, help is not needed — the caller blocks until the last
  // shard signals completion.
  struct Barrier {
    std::mutex mutex;
    std::condition_variable done;
    size_t remaining = 0;
  } barrier;
  barrier.remaining = (rows.rows() + batch_rows - 1) / batch_rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t begin = 0; begin < rows.rows(); begin += batch_rows) {
      const size_t end = std::min(begin + batch_rows, rows.rows());
      queue_.emplace_back([this, &rows, begin, end, &predictions,
                           &barrier](Matrix* scratch) {
        ScoreRange(rows, begin, end, &predictions, scratch);
        std::lock_guard<std::mutex> barrier_lock(barrier.mutex);
        if (--barrier.remaining == 0) barrier.done.notify_one();
      });
    }
  }
  work_available_.notify_all();
  std::unique_lock<std::mutex> lock(barrier.mutex);
  barrier.done.wait(lock, [&barrier] { return barrier.remaining == 0; });
  return predictions;
}

}  // namespace autofp
