#include "core/evaluator.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "data/splits.h"
#include "ml/metrics.h"
#include "util/timer.h"

namespace autofp {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

/// Key fragment identifying the exact training matrix a prefix was fitted
/// on: the full data for effective fraction >= 1, otherwise the
/// (fraction, seed) pair that reproduces the subsample.
std::string SubsampleKey(double effective_fraction, uint64_t seed) {
  if (effective_fraction >= 1.0) return "full";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "f%.17g|s%llu", effective_fraction,
                static_cast<unsigned long long>(seed));
  return buffer;
}

}  // namespace

Evaluation FailedEvaluation(const EvalRequest& request, EvalFailure failure,
                            Status status) {
  Evaluation result;
  result.pipeline = request.pipeline;
  result.budget_fraction = request.budget_fraction;
  result.failure = failure;
  result.status = std::move(status);
  result.accuracy = kPenaltyAccuracy;
  return result;
}

uint64_t EvalRequest::DeriveSeed(uint64_t root, const PipelineSpec& pipeline,
                                 double budget_fraction, int attempt) {
  uint64_t fraction_bits = 0;
  std::memcpy(&fraction_bits, &budget_fraction, sizeof(fraction_bits));
  uint64_t mixed = SplitMix64(root);
  mixed = SplitMix64(mixed ^ Fnv1a(pipeline.Key()));
  mixed = SplitMix64(mixed ^ fraction_bits);
  mixed = SplitMix64(mixed ^ static_cast<uint64_t>(attempt));
  return mixed;
}

PipelineEvaluator::PipelineEvaluator(Dataset train, Dataset valid,
                                     ModelConfig model)
    : train_(std::move(train)), valid_(std::move(valid)), model_(model) {
  AUTOFP_CHECK_GT(train_.num_rows(), 0u);
  AUTOFP_CHECK_GT(valid_.num_rows(), 0u);
  AUTOFP_CHECK_EQ(train_.num_cols(), valid_.num_cols());
  AUTOFP_CHECK_EQ(train_.num_classes, valid_.num_classes);
}

Evaluation PipelineEvaluator::Evaluate(const EvalRequest& request) {
  return Evaluate(request, /*scratch=*/nullptr);
}

Evaluation PipelineEvaluator::Evaluate(const EvalRequest& request,
                                       TransformScratch* scratch) {
  num_evaluations_.fetch_add(1, std::memory_order_relaxed);
  return EvaluateImpl(request, scratch);
}

Evaluation PipelineEvaluator::EvaluateImpl(const EvalRequest& request,
                                           TransformScratch* scratch) {
  const PipelineSpec& pipeline = request.pipeline;
  const double budget_fraction = request.budget_fraction;
  AUTOFP_CHECK_GT(budget_fraction, 0.0);
  AUTOFP_CHECK_LE(budget_fraction, 1.0);
  Stopwatch eval_watch;

  const double deadline = request.deadline_seconds;
  auto past_deadline = [&]() {
    return deadline > 0.0 && eval_watch.ElapsedSeconds() > deadline;
  };

  Evaluation result;
  result.pipeline = pipeline;
  result.budget_fraction = budget_fraction;

  const Dataset* train_view = &train_;
  Dataset subsampled;
  double effective_fraction = budget_fraction * global_train_fraction_;
  if (effective_fraction < 1.0) {
    // Seeded by the request, not by call count: concurrent and repeated
    // evaluations of the same request subsample identically.
    Rng subsample_rng(request.seed);
    subsampled =
        SubsampleRowsStratified(train_, effective_fraction, &subsample_rng);
    train_view = &subsampled;
  }

  Stopwatch prep_watch;
  // The shared matrices returned here may alias `train_view`/`valid_`
  // (empty pipeline) or `*scratch` (uncached path) — both outlive every
  // use below, which is the whole lifetime the zero-copy contract needs.
  Result<SharedTransformedPair> transformed = CheckedFitTransformPairCached(
      pipeline, train_view->features, valid_.features, transform_cache_.get(),
      SubsampleKey(effective_fraction, request.seed), scratch);
  result.timing.prep_seconds = prep_watch.ElapsedSeconds();
  if (!transformed.ok()) {
    Status status = transformed.status();
    EvalFailure failure = FailureFromStatus(status);
    return FailedEvaluation(request, failure, std::move(status));
  }
  if (past_deadline()) {
    return FailedEvaluation(
        request, EvalFailure::kDeadlineExceeded,
        Status::Internal("deadline exceeded after preprocessing"));
  }

  Stopwatch train_watch;
  std::unique_ptr<Classifier> model = MakeClassifier(model_);
  model->Train(*transformed.value().train, train_view->labels,
               train_.num_classes);
  double accuracy =
      EvaluateAccuracy(*model, *transformed.value().valid, valid_.labels);
  result.timing.train_seconds = train_watch.ElapsedSeconds();
  if (!std::isfinite(accuracy)) {
    return FailedEvaluation(request, EvalFailure::kModelDiverged,
                            Status::Internal("non-finite validation score"));
  }
  if (past_deadline()) {
    return FailedEvaluation(
        request, EvalFailure::kDeadlineExceeded,
        Status::Internal("deadline exceeded during training"));
  }
  result.accuracy = accuracy;
  return result;
}

double PipelineEvaluator::BaselineAccuracy() {
  std::lock_guard<std::mutex> lock(baseline_mutex_);
  if (baseline_accuracy_ < 0.0) {
    // The baseline is infrastructure, not a search decision: compute it
    // without a deadline or budget accounting (the evaluation counter is
    // not bumped).
    baseline_accuracy_ =
        EvaluateImpl(EvalRequest{}, /*scratch=*/nullptr).accuracy;
  }
  return baseline_accuracy_;
}

}  // namespace autofp
