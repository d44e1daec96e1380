/// Tests of the fault-tolerant evaluation subsystem: FaultInjector
/// determinism, retry/quarantine bookkeeping in SearchContext, deadline
/// semantics, and end-to-end searches over a rigged evaluator with 20%
/// injected faults.

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
// FaultInjector determinism.

TEST(FaultInjector, SameSeedSameDecisionStream) {
  FaultInjectorConfig config;
  config.fault_rate = 0.3;
  config.slowdown_rate = 0.2;
  config.slowdown_seconds = 0.7;
  config.seed = 1234;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 500; ++i) {
    InjectionDecision da = a.DecisionFor(i);
    InjectionDecision db = b.DecisionFor(i);
    EXPECT_EQ(da.failure, db.failure) << "call " << i;
    EXPECT_DOUBLE_EQ(da.delay_seconds, db.delay_seconds) << "call " << i;
  }
  EXPECT_EQ(a.num_decisions(), 500);
  EXPECT_EQ(a.num_injected_faults(), b.num_injected_faults());
  EXPECT_EQ(a.num_injected_slowdowns(), b.num_injected_slowdowns());
  EXPECT_GT(a.num_injected_faults(), 0);
  EXPECT_GT(a.num_injected_slowdowns(), 0);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjectorConfig config;
  config.fault_rate = 0.5;
  config.seed = 1;
  FaultInjector a(config);
  config.seed = 2;
  FaultInjector b(config);
  int differences = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.DecisionFor(i).failure != b.DecisionFor(i).failure) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, ZeroRatesNeverInject) {
  FaultInjector injector(FaultInjectorConfig{});
  for (int i = 0; i < 100; ++i) {
    InjectionDecision decision = injector.DecisionFor(i);
    EXPECT_EQ(decision.failure, EvalFailure::kNone);
    EXPECT_DOUBLE_EQ(decision.delay_seconds, 0.0);
  }
  EXPECT_EQ(injector.num_injected_faults(), 0);
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
  // Injected faults are transient: wrap the rigged evaluator in a
  // FaultInjectingEvaluator with a high fault rate and verify retries
  // happen and recovered evaluations keep their true score. Injection is
  // a pure function of the request seed, so distinct pipelines (distinct
  // seeds) are needed to explore varied injector outcomes.
  FlakyRiggedEvaluator inner;
  FaultInjectorConfig config;
  config.fault_rate = 0.5;
  config.seed = 99;
  FaultInjectingEvaluator evaluator(&inner, config);
  SearchSpace space = SearchSpace::Default();
  FaultPolicy policy;
  policy.max_retries = 3;
  SearchOptions options;
  options.budget = Budget::Evaluations(50);
  options.seed = 7;
  options.fault_policy = policy;
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

TEST(Retry, BackoffIsBounded) {
  FaultPolicy policy;
  policy.max_retries = 10;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.03;
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.01);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 0.02);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 0.03);  // capped.
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(8), 0.03);  // still capped.
  EXPECT_DOUBLE_EQ(FaultPolicy{}.BackoffSeconds(3), 0.0);  // default: none.
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
    LandscapeEvaluator inner;
    FaultInjectorConfig config;
    config.fault_rate = 0.2;
    config.seed = 4242;
    FaultInjectingEvaluator evaluator(&inner, config);
    auto algorithm = MakeSearchAlgorithm(name).value();
    SearchResult result =
        RunSearch(algorithm.get(), &evaluator, SearchSpace::Default(), {Budget::Evaluations(200), 21});
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
  FaultInjectorConfig config;
  config.fault_rate = 0.2;
  config.slowdown_rate = 0.1;
  config.slowdown_seconds = 100.0;  // always past the deadline below.
  config.seed = 12;
  evaluator.AttachFaultInjector(config);
  auto rs = MakeSearchAlgorithm("RS").value();
  SearchResult result =
      RunSearch(rs.get(), &evaluator, SearchSpace::Default(), {Budget::Evaluations(40).WithEvalDeadline(5.0), 11});
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
