#ifndef AUTOFP_SERVE_PREDICTOR_H_
#define AUTOFP_SERVE_PREDICTOR_H_

/// The inference runtime (see DESIGN.md "Artifacts and serving"): loads a
/// pipeline artifact into an immutable Predictor that applies
/// `transform -> predict` to row batches, optionally sharded over a
/// ThreadPool (results land in input order). Every serving
/// row is validated against the artifact schema with a typed error —
/// nothing downstream of the schema guard ever sees a misshapen row —
/// and every scored batch feeds a latency histogram (count, rows/sec,
/// p50/p95/p99).

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ml/model.h"
#include "preprocess/pipeline.h"
#include "serve/artifact.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace autofp {

/// Snapshot of the serving-latency histogram. Percentiles are over
/// per-batch latencies (the unit a caller waits on); rows_per_second is
/// total rows over summed batch time.
struct ServeStats {
  long batches = 0;
  long rows = 0;
  double busy_seconds = 0.0;
  double rows_per_second = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Thread-safe log-bucketed latency histogram (fixed memory, so a
/// long-running serve loop never grows it).
class LatencyRecorder {
 public:
  void Record(double seconds, long rows);
  ServeStats Snapshot() const;

 private:
  /// Bucket i covers [1us * kGrowth^i, 1us * kGrowth^(i+1)); ~15% relative
  /// error, spanning 1us..~1e3 s.
  static constexpr int kNumBuckets = 160;
  static constexpr double kGrowth = 1.15;
  static int BucketIndex(double seconds);
  static double BucketValueMs(int bucket);

  mutable std::mutex mutex_;
  std::array<long, kNumBuckets> counts_{};
  long batches_ = 0;
  long rows_ = 0;
  double busy_seconds_ = 0.0;
};

/// Options for assembling a Predictor.
struct PredictorOptions {
  /// Pool threads for sharded scoring: `num_threads` workers score the
  /// shards while the caller waits. 1 scores inline on the caller.
  int num_threads = 1;
};

/// An immutable, thread-safe serving unit: fitted pipeline + trained
/// model + the schema they were exported with. All scoring methods are
/// const and safe to call concurrently; the only mutable state is the
/// latency histogram (locked) and the pool's per-worker shard buffers
/// (each touched by its own worker only).
class Predictor {
 public:
  using Options = PredictorOptions;

  /// Typed outcome of loading an artifact into a predictor: one Status
  /// carries success/failure (its message embeds the taxonomy name, so
  /// `status().ToString()` is self-contained), and `artifact_error()`
  /// names which corruption-taxonomy case fired for callers that branch
  /// on it.
  class LoadResult {
   public:
    LoadResult(ArtifactError artifact_error, Status status,
               std::unique_ptr<Predictor> predictor)
        : artifact_error_(artifact_error),
          status_(std::move(status)),
          predictor_(std::move(predictor)) {
      AUTOFP_CHECK((predictor_ != nullptr) == status_.ok());
    }

    bool ok() const { return status_.ok(); }
    const Status& status() const { return status_; }

    /// Which ArtifactError case failed the load; kNone on success.
    ArtifactError artifact_error() const { return artifact_error_; }

    /// The loaded predictor; ok() must hold.
    const Predictor& predictor() const {
      AUTOFP_CHECK(ok()) << status_.ToString();
      return *predictor_;
    }

    /// Moves the loaded predictor out; ok() must hold.
    std::unique_ptr<Predictor> TakePredictor() {
      AUTOFP_CHECK(ok()) << status_.ToString();
      return std::move(predictor_);
    }

   private:
    ArtifactError artifact_error_;
    Status status_;
    std::unique_ptr<Predictor> predictor_;
  };

  /// Reads `path` (full corruption taxonomy applies) and assembles the
  /// predictor.
  static LoadResult Load(const std::string& path,
                         const Options& options = Options());

  /// Assembles a predictor from an already-loaded artifact.
  static std::unique_ptr<Predictor> FromArtifact(
      LoadedArtifact artifact, const Options& options = Options());

  Predictor(const Predictor&) = delete;
  Predictor& operator=(const Predictor&) = delete;

  /// Scores one batch: schema-validates `rows` (typed InvalidArgument if
  /// the column count differs from the artifact schema — never UB), then
  /// transform + predict. Returns one class id per row.
  Result<std::vector<int>> Predict(const Matrix& rows) const;

  /// Sharded scoring: splits `rows` into shards of `batch_rows` and
  /// scores them concurrently on the worker pool (inline when
  /// num_threads is 1). Results are in row order and identical to
  /// Predict()'s at any thread count.
  Result<std::vector<int>> PredictSharded(const Matrix& rows,
                                          size_t batch_rows) const;

  const ArtifactSchema& schema() const { return schema_; }
  const PipelineSpec& spec() const { return pipeline_.spec(); }
  const ModelConfig& model_config() const { return model_config_; }
  /// Drift baseline stamped at export time (empty = none recorded; drift
  /// monitoring is then unavailable for this artifact).
  const ReferenceStats& reference_stats() const { return reference_stats_; }
  int num_threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Latency histogram over every batch scored so far.
  ServeStats stats() const { return latency_.Snapshot(); }

 private:
  Predictor(LoadedArtifact artifact, const Options& options);

  /// Schema guard shared by both scoring paths.
  Status ValidateSchema(const Matrix& rows) const;
  /// Transform+predict rows [begin, end) of `rows` into predictions
  /// [begin, end), recording the shard's latency. The shard is copied
  /// into `*scratch` and transformed there in place — each worker (and
  /// each inline call) brings its own buffer, so the steady state
  /// allocates nothing per shard.
  void ScoreRange(const Matrix& rows, size_t begin, size_t end,
                  std::vector<int>* predictions, Matrix* scratch) const;

  ArtifactSchema schema_;
  FittedPipeline pipeline_;
  ModelConfig model_config_;
  std::unique_ptr<Classifier> model_;
  ReferenceStats reference_stats_;
  mutable LatencyRecorder latency_;

  /// One reusable shard buffer per pool worker: a worker scores one shard
  /// at a time, so after the first few shards its buffer has seen the
  /// largest shard shape and scoring stops allocating.
  mutable std::vector<Matrix> shard_scratch_;
  /// Sharded-scoring workers; null when num_threads == 1. Declared after
  /// what they use, so they are joined first.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace autofp

#endif  // AUTOFP_SERVE_PREDICTOR_H_
