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
  if (options.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.num_threads);
    shard_scratch_.resize(static_cast<size_t>(options.num_threads));
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
  if (pool_ == nullptr || rows.rows() <= batch_rows) {
    Matrix scratch;
    ScoreRange(rows, 0, rows.rows(), &predictions, &scratch);
    return predictions;
  }
  const size_t num_shards = (rows.rows() + batch_rows - 1) / batch_rows;
  pool_->ParallelFor(num_shards, [&](size_t shard, int worker) {
    const size_t begin = shard * batch_rows;
    const size_t end = std::min(begin + batch_rows, rows.rows());
    ScoreRange(rows, begin, end, &predictions,
               &shard_scratch_[static_cast<size_t>(worker)]);
  });
  return predictions;
}

}  // namespace autofp
