/// Tests of the fault-tolerant evaluation subsystem: injection-decision
/// determinism, retry/quarantine bookkeeping in SearchContext, where
/// injected faults and slowdowns resolve, deadline semantics, and
/// end-to-end searches over a rigged evaluator with 20% injected faults.

#include <algorithm>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/fault.h"
#include "core/search_framework.h"
#include "data/synthetic.h"
#include "data/splits.h"
#include "search/registry.h"
#include "search/two_step.h"

namespace autofp {
namespace {

// ---------------------------------------------------------------------------
// Injection-decision determinism.

TEST(FaultInjector, SameSeedSameDecisionStream) {
  FaultInjectorConfig config;
  config.fault_rate = 0.3;
  config.slowdown_rate = 0.2;
  config.slowdown_seconds = 0.7;
  config.seed = 1234;
  const FaultInjectorConfig copy = config;
  int faults = 0;
  int slowdowns = 0;
  for (int i = 0; i < 500; ++i) {
    InjectionDecision da = DecideInjection(config, i);
    InjectionDecision db = DecideInjection(copy, i);
    EXPECT_EQ(da.failure, db.failure) << "call " << i;
    EXPECT_DOUBLE_EQ(da.delay_seconds, db.delay_seconds) << "call " << i;
    faults += da.failure == EvalFailure::kInjected;
    slowdowns += da.delay_seconds > 0.0;
  }
  EXPECT_GT(faults, 0);
  EXPECT_GT(slowdowns, 0);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjectorConfig a;
  a.fault_rate = 0.5;
  a.seed = 1;
  FaultInjectorConfig b = a;
  b.seed = 2;
  int differences = 0;
  for (int i = 0; i < 200; ++i) {
    if (DecideInjection(a, i).failure != DecideInjection(b, i).failure) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, ZeroRatesNeverInject) {
  for (int i = 0; i < 100; ++i) {
    InjectionDecision decision = DecideInjection(FaultInjectorConfig{}, i);
    EXPECT_EQ(decision.failure, EvalFailure::kNone);
    EXPECT_DOUBLE_EQ(decision.delay_seconds, 0.0);
  }
}

TEST(FaultTaxonomy, NamesAndTransience) {
  EXPECT_STREQ(EvalFailureName(EvalFailure::kNone), "OK");
  EXPECT_STREQ(EvalFailureName(EvalFailure::kNonFiniteOutput),
               "NonFiniteOutput");
  EXPECT_TRUE(IsTransientFailure(EvalFailure::kInjected));
  EXPECT_TRUE(IsTransientFailure(EvalFailure::kDeadlineExceeded));
  EXPECT_FALSE(IsTransientFailure(EvalFailure::kNonFiniteOutput));
  EXPECT_FALSE(IsTransientFailure(EvalFailure::kDegenerateTransform));
  EXPECT_FALSE(IsTransientFailure(EvalFailure::kModelDiverged));
  EXPECT_EQ(FailureFromStatus(Status::OutOfRange("x")),
            EvalFailure::kNonFiniteOutput);
  EXPECT_EQ(FailureFromStatus(Status::InvalidArgument("x")),
            EvalFailure::kDegenerateTransform);
  EXPECT_EQ(FailureFromStatus(Status::OK()), EvalFailure::kNone);
}

// ---------------------------------------------------------------------------
// Retry / quarantine bookkeeping in SearchContext.

/// Rigged evaluator whose failure behaviour is a function of the pipeline:
/// pipelines starting with Normalizer fail permanently (kNonFiniteOutput);
/// everything else scores by Binarizer count. Counts raw calls.
class FlakyRiggedEvaluator : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    const PipelineSpec& pipeline = request.pipeline;
    ++num_calls_;
    Evaluation evaluation;
    evaluation.pipeline = pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    if (!pipeline.empty() &&
        pipeline.steps[0].kind == PreprocessorKind::kNormalizer) {
      evaluation.failure = EvalFailure::kNonFiniteOutput;
      evaluation.status = Status::OutOfRange("rigged non-finite");
      evaluation.accuracy = kPenaltyAccuracy;
      return evaluation;
    }
    double score = 0.3;
    for (const PreprocessorConfig& step : pipeline.steps) {
      if (step.kind == PreprocessorKind::kBinarizer) score += 0.1;
    }
    evaluation.accuracy = std::min(score, 1.0);
    return evaluation;
  }
  double BaselineAccuracy() override { return 0.3; }
  long num_calls() const { return num_calls_; }

 private:
  long num_calls_ = 0;
};

PipelineSpec SpecOf(std::initializer_list<PreprocessorKind> kinds) {
  return PipelineSpec::FromKinds(std::vector<PreprocessorKind>(kinds));
}

TEST(Quarantine, PermanentFailureIsNeverReEvaluated) {
  FlakyRiggedEvaluator evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(100), 7});
  PipelineSpec bad = SpecOf({PreprocessorKind::kNormalizer});

  std::optional<double> first = context.Evaluate(bad);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(*first, kPenaltyAccuracy);
  EXPECT_EQ(evaluator.num_calls(), 1);  // permanent: no retry attempts.
  EXPECT_EQ(context.num_failures(), 1);
  EXPECT_EQ(context.num_retries(), 0);
  EXPECT_EQ(context.num_quarantined(), 1);
  EXPECT_TRUE(context.IsQuarantined(bad));

  // Re-proposing the quarantined pipeline short-circuits: the evaluator is
  // not called again, the history records a flagged failure, and budget is
  // still charged so searches terminate.
  std::optional<double> second = context.Evaluate(bad);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(*second, kPenaltyAccuracy);
  EXPECT_EQ(evaluator.num_calls(), 1);
  EXPECT_EQ(context.num_quarantine_hits(), 1);
  EXPECT_EQ(context.num_quarantined(), 1);
  EXPECT_DOUBLE_EQ(context.evaluation_cost(), 2.0);
  ASSERT_EQ(context.history().size(), 2u);
  EXPECT_EQ(context.history()[1].failure, EvalFailure::kNonFiniteOutput);
  EXPECT_TRUE(context.history()[1].failed());
}

TEST(Quarantine, FailedEvaluationsNeverBecomeBest) {
  FlakyRiggedEvaluator evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(100), 7});
  context.Evaluate(SpecOf({PreprocessorKind::kNormalizer}));
  EXPECT_FALSE(context.has_best());  // only a failed evaluation exists.
  context.Evaluate(SpecOf({PreprocessorKind::kBinarizer}));
  ASSERT_TRUE(context.has_best());
  EXPECT_FALSE(context.best().failed());
  EXPECT_DOUBLE_EQ(context.best().accuracy, 0.4);
  // Another failure afterwards must not displace the best.
  context.Evaluate(SpecOf({PreprocessorKind::kNormalizer,
                           PreprocessorKind::kBinarizer}));
  EXPECT_DOUBLE_EQ(context.best().accuracy, 0.4);
}

TEST(BestTracking, NonFiniteAccuracyIsRejected) {
  // A rigged evaluator that returns NaN for one specific pipeline but does
  // NOT flag it as failed — the framework must still reject it from
  // best-tracking (the NaN-poisoning fix).
  class NanEvaluator : public EvaluatorInterface {
   public:
    using EvaluatorInterface::Evaluate;
    Evaluation Evaluate(const EvalRequest& request) override {
      Evaluation evaluation;
      evaluation.pipeline = request.pipeline;
      evaluation.budget_fraction = request.budget_fraction;
      evaluation.accuracy =
          request.pipeline.size() == 1 ? std::nan("") : 0.5;
      return evaluation;
    }
    double BaselineAccuracy() override { return 0.5; }
  };
  NanEvaluator evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(10), 7});
  context.Evaluate(SpecOf({PreprocessorKind::kBinarizer}));  // NaN score.
  EXPECT_FALSE(context.has_best());
  context.Evaluate(SpecOf({PreprocessorKind::kBinarizer,
                           PreprocessorKind::kStandardScaler}));
  ASSERT_TRUE(context.has_best());
  EXPECT_DOUBLE_EQ(context.best().accuracy, 0.5);
  // The NaN must not have poisoned best_key_: a later good score stays.
  context.Evaluate(SpecOf({PreprocessorKind::kBinarizer}));  // NaN again.
  EXPECT_DOUBLE_EQ(context.best().accuracy, 0.5);
}

TEST(Retry, TransientFaultsAreRetriedWithBookkeeping) {
  // Injected faults are transient: inject at a high fault rate and verify
  // retries happen and recovered evaluations keep their true score.
  // Injection is a pure function of the request seed, so distinct
  // pipelines (distinct seeds) are needed to explore varied outcomes.
  FlakyRiggedEvaluator evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchOptions options;
  options.budget = Budget::Evaluations(50);
  options.seed = 7;
  options.fault_policy.max_retries = 3;
  options.fault_injection.fault_rate = 0.5;
  options.fault_injection.seed = 99;
  SearchContext context(&space, &evaluator, options);
  int recovered_after_retry = 0;
  for (int i = 0; i < 50; ++i) {
    // Binarizer chains of varying length: all succeed in the rigged
    // landscape, each with its own request seed.
    std::vector<PreprocessorKind> kinds(static_cast<size_t>(i % 5) + 1,
                                        PreprocessorKind::kBinarizer);
    PipelineSpec pipeline = PipelineSpec::FromKinds(kinds);
    double expected =
        std::min(0.3 + 0.1 * static_cast<double>(kinds.size()), 1.0);
    std::optional<double> score = context.Evaluate(pipeline);
    if (!score.has_value()) break;
    const Evaluation& last = context.history().back();
    if (!last.failed() && last.attempts > 1) ++recovered_after_retry;
    if (!last.failed()) {
      EXPECT_DOUBLE_EQ(*score, expected);
    }
  }
  EXPECT_GT(context.num_failures(), 0);
  EXPECT_GT(context.num_retries(), 0);
  EXPECT_GT(recovered_after_retry, 0);
  // Transient failures never quarantine.
  EXPECT_EQ(context.num_quarantined(), 0);
}

// ---------------------------------------------------------------------------
// The injection point: SearchContext resolves injected faults and
// deadline-breaking slowdowns before dispatch.

/// Scores every pipeline 0.6 with 0.5 s of reported prep time, and counts
/// its calls.
class CountingPrepLandscape : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    ++num_calls_;
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    evaluation.accuracy = 0.6;
    evaluation.timing.prep_seconds = 0.5;
    return evaluation;
  }
  double BaselineAccuracy() override { return 0.25; }
  long num_calls() const { return num_calls_; }

 private:
  long num_calls_ = 0;
};

/// One evaluation of a Binarizer pipeline under `injection` with a 5 s
/// deadline and no retries; returns its record.
Evaluation EvaluateOnceInjected(CountingPrepLandscape* evaluator,
                                const FaultInjectorConfig& injection) {
  SearchSpace space = SearchSpace::Default();
  SearchOptions options{Budget::Evaluations(10).WithEvalDeadline(5.0), 7};
  options.fault_policy.max_retries = 0;
  options.fault_injection = injection;
  SearchContext context(&space, evaluator, options);
  context.Evaluate(SpecOf({PreprocessorKind::kBinarizer}));
  return context.history().back();
}

TEST(InjectionPoint, InjectedFaultNeverCallsTheEvaluator) {
  CountingPrepLandscape evaluator;
  FaultInjectorConfig injection;
  injection.fault_rate = 1.0;
  Evaluation evaluation = EvaluateOnceInjected(&evaluator, injection);
  EXPECT_EQ(evaluation.failure, EvalFailure::kInjected);
  EXPECT_DOUBLE_EQ(evaluation.accuracy, kPenaltyAccuracy);
  EXPECT_EQ(evaluator.num_calls(), 0);
}

TEST(InjectionPoint, SlowdownAtOrPastDeadlineNeverCallsTheEvaluator) {
  for (double delay : {5.0, 10.0}) {  // the deadline is 5 s.
    CountingPrepLandscape evaluator;
    FaultInjectorConfig injection;
    injection.slowdown_rate = 1.0;
    injection.slowdown_seconds = delay;
    Evaluation evaluation = EvaluateOnceInjected(&evaluator, injection);
    EXPECT_EQ(evaluation.failure, EvalFailure::kDeadlineExceeded) << delay;
    EXPECT_EQ(evaluator.num_calls(), 0) << delay;
  }
}

TEST(InjectionPoint, SlowdownBelowDeadlineAddsExactlyItsDelayToPrep) {
  CountingPrepLandscape evaluator;
  FaultInjectorConfig injection;
  injection.slowdown_rate = 1.0;
  injection.slowdown_seconds = 0.25;
  Evaluation evaluation = EvaluateOnceInjected(&evaluator, injection);
  EXPECT_FALSE(evaluation.failed());
  EXPECT_DOUBLE_EQ(evaluation.accuracy, 0.6);
  EXPECT_EQ(evaluation.timing.prep_seconds, 0.5 + 0.25);
  EXPECT_EQ(evaluator.num_calls(), 1);
}

TEST(InjectionPoint, BaselineIsUntouchedAtFaultRateOne) {
  CountingPrepLandscape evaluator;
  SearchOptions options{Budget::Evaluations(20), 7};
  options.fault_injection.fault_rate = 1.0;
  auto rs = MakeSearchAlgorithm("RS").value();
  SearchResult result =
      RunSearch(rs.get(), &evaluator, SearchSpace::Default(), options);
  EXPECT_EQ(evaluator.num_calls(), 0);
  EXPECT_EQ(result.num_successes, 0);
  EXPECT_GT(result.num_failures, 0);
  EXPECT_DOUBLE_EQ(result.baseline_accuracy, 0.25);
  EXPECT_DOUBLE_EQ(result.best_accuracy, 0.25);  // the baseline fallback.
}

// ---------------------------------------------------------------------------
// End-to-end: RunSearch under 20% injected faults.

double GradientLandscape(const PipelineSpec& pipeline) {
  double score = 0.3;
  for (const PreprocessorConfig& step : pipeline.steps) {
    if (step.kind == PreprocessorKind::kBinarizer) score += 0.15;
  }
  score -= 0.02 * static_cast<double>(pipeline.size());
  return std::min(score, 1.0);
}

class LandscapeEvaluator : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    evaluation.accuracy = GradientLandscape(request.pipeline);
    return evaluation;
  }
  double BaselineAccuracy() override {
    return GradientLandscape(PipelineSpec{});
  }
};

TEST(FaultySearch, TwentyPercentFaultsStillFindValidBest) {
  for (const char* name : {"RS", "TEVO_H", "TPE"}) {
    LandscapeEvaluator evaluator;
    SearchOptions options{Budget::Evaluations(200), 21};
    options.fault_injection.fault_rate = 0.2;
    options.fault_injection.seed = 4242;
    auto algorithm = MakeSearchAlgorithm(name).value();
    SearchResult result = RunSearch(algorithm.get(), &evaluator,
                                    SearchSpace::Default(), options);
    EXPECT_TRUE(std::isfinite(result.best_accuracy)) << name;
    EXPECT_GE(result.best_accuracy, 0.5) << name;
    EXPECT_FALSE(result.best_pipeline.empty()) << name;
    EXPECT_GT(result.num_failures, 0) << name;
    EXPECT_GT(result.num_retries, 0) << name;
    EXPECT_EQ(result.num_quarantined, 0) << name;  // all faults transient.
  }
}

TEST(FaultySearch, TwoStepCountsDistinctQuarantinedPipelines) {
  // Each inner round owns its quarantine map, so the same Normalizer-first
  // pipeline can be quarantined in several rounds; the two-step report
  // must count distinct pipelines, not a per-round sum.
  FlakyRiggedEvaluator evaluator;
  TwoStepConfig config;
  config.algorithm = "RS";
  config.inner_budget = Budget::Evaluations(8);
  config.max_pipeline_length = 3;
  SearchResult result =
      RunTwoStep(config, &evaluator, ParameterSpace::LowCardinality(),
                 {Budget::Evaluations(64), 9});
  EXPECT_GT(result.num_quarantined, 0);
  EXPECT_EQ(result.num_quarantined,
            static_cast<long>(result.quarantined_pipelines.size()));
  EXPECT_TRUE(std::is_sorted(result.quarantined_pipelines.begin(),
                             result.quarantined_pipelines.end()));
  EXPECT_EQ(std::adjacent_find(result.quarantined_pipelines.begin(),
                               result.quarantined_pipelines.end()),
            result.quarantined_pipelines.end());
}

TEST(FaultySearch, RealEvaluatorWithInjectorAndDeadline) {
  SyntheticSpec spec;
  spec.name = "faulty";
  spec.rows = 120;
  spec.cols = 4;
  spec.num_classes = 2;
  spec.seed = 11;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(11);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &rng);
  ModelConfig model = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  model.lr_epochs = 10;
  PipelineEvaluator evaluator(split.train, split.valid, model);
  SearchOptions options{Budget::Evaluations(40).WithEvalDeadline(5.0), 11};
  options.fault_injection.fault_rate = 0.2;
  options.fault_injection.slowdown_rate = 0.1;
  options.fault_injection.slowdown_seconds = 100.0;  // past the deadline.
  options.fault_injection.seed = 12;
  auto rs = MakeSearchAlgorithm("RS").value();
  SearchResult result =
      RunSearch(rs.get(), &evaluator, SearchSpace::Default(), options);
  EXPECT_TRUE(std::isfinite(result.best_accuracy));
  EXPECT_GT(result.best_accuracy, 0.0);
  EXPECT_GT(result.num_failures, 0);
  // The baseline is computed injection-free, so it is a real accuracy.
  EXPECT_GT(result.baseline_accuracy, 0.0);
}

TEST(FaultySearch, DeadlineZeroPointZeroOneFailsSlowEvaluations) {
  // A deadline far below any real evaluation time: every evaluation fails
  // with kDeadlineExceeded, best falls back to the baseline, and nothing
  // crashes.
  SyntheticSpec spec;
  spec.name = "deadline";
  spec.rows = 400;
  spec.cols = 20;
  spec.num_classes = 2;
  spec.seed = 13;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(13);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &rng);
  PipelineEvaluator evaluator(
      split.train, split.valid,
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  EvalRequest request;
  request.pipeline =
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler});
  request.deadline_seconds = 1e-9;
  Evaluation evaluation = evaluator.Evaluate(request);
  EXPECT_TRUE(evaluation.failed());
  EXPECT_EQ(evaluation.failure, EvalFailure::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(evaluation.accuracy, kPenaltyAccuracy);
}

TEST(StratifiedSubsample, KeepsEveryClassAtTinyFractions) {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.rows = 60;
  spec.cols = 3;
  spec.num_classes = 5;
  spec.seed = 17;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(17);
  for (double fraction : {0.01, 0.05, 0.1}) {
    Dataset sample = SubsampleRowsStratified(data, fraction, &rng);
    std::vector<int> counts(data.num_classes, 0);
    for (int label : sample.labels) counts[label]++;
    for (int cls = 0; cls < data.num_classes; ++cls) {
      EXPECT_GT(counts[cls], 0) << "class " << cls << " lost at fraction "
                                << fraction;
    }
  }
}

}  // namespace
}  // namespace autofp
