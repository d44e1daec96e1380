#ifndef AUTOFP_CORE_EVALUATOR_H_
#define AUTOFP_CORE_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/fault.h"
#include "data/dataset.h"
#include "ml/model.h"
#include "preprocess/pipeline.h"
#include "preprocess/transform_cache.h"
#include "util/random.h"

namespace autofp {

/// Timing decomposition of one pipeline evaluation — the "Prep" and
/// "Train" components of the paper's Section 5.3 bottleneck analysis
/// ("Pick" is measured by the search runner, outside the evaluator).
struct EvalTiming {
  double prep_seconds = 0.0;   ///< pipeline fit + transform of train/valid.
  double train_seconds = 0.0;  ///< classifier training + validation scoring.
};

/// One evaluation request: everything an evaluator needs to score a
/// pipeline, carried per call so evaluators hold no mutable evaluation
/// state and wrappers (fault injection, the distributed coordinator) compose
/// without hidden knobs.
struct EvalRequest {
  PipelineSpec pipeline;
  /// Fraction of training rows used (bandit partial-training budgets);
  /// 1.0 = full training data.
  double budget_fraction = 1.0;
  /// Per-evaluation wall-clock deadline in seconds; <= 0 disables. An
  /// evaluation that exceeds it reports EvalFailure::kDeadlineExceeded.
  double deadline_seconds = -1.0;
  /// Seed for all evaluation-local randomness (training subsampling, fault
  /// injection). Two evaluations of identical requests produce identical
  /// results regardless of thread interleaving or call order.
  uint64_t seed = 0;

  /// Canonical seed derivation: a pure function of (root, pipeline,
  /// fraction, attempt). The search framework uses it so an evaluation's
  /// outcome depends only on what is evaluated, never on when — the basis
  /// of the multi-thread determinism guarantee and of the result memo.
  static uint64_t DeriveSeed(uint64_t root, const PipelineSpec& pipeline,
                             double budget_fraction, int attempt);
};

/// One evaluated pipeline: the record type of Algorithm 1's history.
/// A failed evaluation carries its typed failure, a Status with detail,
/// and the penalty score (kPenaltyAccuracy) instead of silent garbage.
struct Evaluation {
  PipelineSpec pipeline;
  double accuracy = 0.0;
  /// Fraction of training rows used (bandit partial-training budgets);
  /// 1.0 = full training data.
  double budget_fraction = 1.0;
  EvalTiming timing;
  /// Typed outcome: kNone on success, otherwise why this evaluation failed
  /// (then `accuracy` holds kPenaltyAccuracy).
  EvalFailure failure = EvalFailure::kNone;
  /// Failure detail (OK on success).
  Status status;
  /// Evaluator attempts this record absorbed (> 1 after retries).
  int attempts = 1;

  bool failed() const { return failure != EvalFailure::kNone; }
};

/// Abstract pipeline evaluator: what the search framework needs from an
/// evaluation backend. The production implementation is PipelineEvaluator;
/// tests substitute synthetic reward landscapes.
///
/// Thread-safety contract: implementations used with num_threads > 1 must
/// tolerate concurrent Evaluate() calls from the search's ThreadPool. Because every request
/// carries its own fraction, deadline and seed, a correct implementation
/// needs no per-call mutable state.
class EvaluatorInterface {
 public:
  virtual ~EvaluatorInterface() = default;

  /// Evaluates one request. Must not throw or abort on degenerate
  /// pipelines: failures are reported through Evaluation::failure with the
  /// penalty score.
  virtual Evaluation Evaluate(const EvalRequest& request) = 0;

  /// Scratch-aware form: `scratch` (may be null) lends the evaluator
  /// reusable transform buffers. The caller owns them and must not lend
  /// the same buffers to concurrent evaluations — SearchContext keeps one
  /// per pool worker (see util/thread_pool.h). The default
  /// ignores the scratch and forwards, so synthetic evaluators that do no
  /// transform work only implement the one-argument form; decorators
  /// should override this and pass the scratch through.
  virtual Evaluation Evaluate(const EvalRequest& request,
                              TransformScratch* scratch) {
    (void)scratch;
    return Evaluate(request);
  }

  /// Batch form: evaluates every request and returns results in request
  /// order. The default runs the batch sequentially through Evaluate();
  /// engines that overlap work themselves (distributed workers) override
  /// it and report so via SupportsConcurrentBatches(), letting the search
  /// framework hand them whole generations at once.
  virtual std::vector<Evaluation> EvaluateAll(
      const std::vector<EvalRequest>& requests) {
    std::vector<Evaluation> results;
    results.reserve(requests.size());
    for (const EvalRequest& request : requests) {
      results.push_back(Evaluate(request));
    }
    return results;
  }

  /// True when EvaluateAll() actually overlaps evaluations (so batching
  /// through it beats the caller's own sequential loop). Decorators
  /// forward their inner evaluator's answer.
  virtual bool SupportsConcurrentBatches() const { return false; }

  /// Accuracy of the empty (no-FP) pipeline.
  virtual double BaselineAccuracy() = 0;
};

/// Evaluates pipelines per the paper's pipeline-error definition (Eq. 2):
/// fit the pipeline on the training features, transform train and valid,
/// train the downstream classifier on the transformed training set and
/// score accuracy on the transformed validation set.
///
/// Fault tolerance: non-finite or degenerate transform output and diverged
/// models are reported as typed failures (never NaN scores, never aborts);
/// an attached FaultInjector can additionally fail or slow down attempts;
/// the per-request deadline turns slow evaluations into kDeadlineExceeded
/// failures.
///
/// Thread-safety: safe for concurrent Evaluate() calls. The datasets and
/// model config are immutable after construction; subsampling and fault
/// injection are pure functions of the request seed; counters are atomic.
/// Configuration setters (global train fraction, injector, cache) must be
/// called before concurrent use begins.
class PipelineEvaluator : public EvaluatorInterface {
 public:
  PipelineEvaluator(Dataset train, Dataset valid, ModelConfig model);

  /// Data-size reduction (the paper's research opportunity 2): scale every
  /// evaluation's training subsample by `fraction` in (0, 1]. The search
  /// explores more pipelines per unit time at the cost of noisier scores.
  void set_global_train_fraction(double fraction) {
    AUTOFP_CHECK_GT(fraction, 0.0);
    AUTOFP_CHECK_LE(fraction, 1.0);
    global_train_fraction_ = fraction;
  }
  double global_train_fraction() const { return global_train_fraction_; }

  /// Attaches a deterministic fault injector; every subsequent Evaluate()
  /// attempt draws one decision from it, keyed by the request seed.
  /// Replaces any previous injector.
  void AttachFaultInjector(const FaultInjectorConfig& config);

  /// Attaches a prefix-transform cache: fitted-pipeline-prefix outputs are
  /// memoized so evaluating "A -> B -> C" after "A -> B" only fits C. The
  /// cache may be shared between evaluators over the same dataset.
  void AttachTransformCache(std::shared_ptr<TransformCache> cache) {
    transform_cache_ = std::move(cache);
  }

  /// Evaluates one request. `budget_fraction` in (0, 1] subsamples
  /// training rows before fitting (the resource axis for Hyperband/BOHB);
  /// subsampling is seeded by the request seed and keeps at least one row
  /// per class.
  Evaluation Evaluate(const EvalRequest& request) override;

  /// Scratch-aware form: on the uncached transform path the fit/transform
  /// chain runs through `*scratch` instead of freshly allocated matrices.
  Evaluation Evaluate(const EvalRequest& request,
                      TransformScratch* scratch) override;

  /// Validation accuracy with no preprocessing (the paper's no-FP line).
  /// Computed once and cached; immune to fault injection and deadlines.
  double BaselineAccuracy() override;

  const Dataset& train() const { return train_; }
  const Dataset& valid() const { return valid_; }
  const ModelConfig& model() const { return model_; }
  long num_evaluations() const {
    return num_evaluations_.load(std::memory_order_relaxed);
  }

 private:
  /// The evaluation body; `use_injector` is false for the baseline and
  /// `scratch` (may be null) backs the uncached transform path.
  Evaluation EvaluateImpl(const EvalRequest& request, bool use_injector,
                          TransformScratch* scratch);

  Dataset train_;
  Dataset valid_;
  ModelConfig model_;
  std::atomic<long> num_evaluations_{0};
  std::mutex baseline_mutex_;
  double baseline_accuracy_ = -1.0;
  double global_train_fraction_ = 1.0;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::shared_ptr<TransformCache> transform_cache_;
};

/// Decorator that applies fault injection (and simulated-slowdown deadline
/// accounting) to *any* EvaluatorInterface — used to exercise search
/// algorithms under faults on synthetic reward landscapes where no real
/// pipeline evaluation happens. Injection decisions are a pure function of
/// the request seed, so faulty runs reproduce exactly even under
/// concurrent evaluation.
class FaultInjectingEvaluator : public EvaluatorInterface {
 public:
  FaultInjectingEvaluator(EvaluatorInterface* inner,
                          const FaultInjectorConfig& config);

  Evaluation Evaluate(const EvalRequest& request) override;
  Evaluation Evaluate(const EvalRequest& request,
                      TransformScratch* scratch) override;
  double BaselineAccuracy() override { return inner_->BaselineAccuracy(); }

  FaultInjector* injector() { return &injector_; }

 private:
  EvaluatorInterface* inner_;
  FaultInjector injector_;
};

}  // namespace autofp

#endif  // AUTOFP_CORE_EVALUATOR_H_
