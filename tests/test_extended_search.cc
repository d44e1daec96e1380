#include "search/two_step.h"

#include <gtest/gtest.h>

#include "data/splits.h"
#include "data/synthetic.h"

namespace autofp {
namespace {

PipelineEvaluator MakeEvaluator(uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "ext";
  spec.family = SyntheticFamily::kThresholdCoded;
  spec.rows = 220;
  spec.cols = 6;
  spec.num_classes = 2;
  spec.seed = seed;
  spec.separation = 3.0;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(seed);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &rng);
  ModelConfig model = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  model.lr_epochs = 30;
  return PipelineEvaluator(split.train, split.valid, model);
}

TEST(OneStep, RunsOnLowCardinalitySpace) {
  PipelineEvaluator evaluator = MakeEvaluator(71);
  SearchResult result =
      RunOneStep("PBT", &evaluator, ParameterSpace::LowCardinality(), {Budget::Evaluations(30), 3}, /*max_pipeline_length=*/4);
  EXPECT_EQ(result.algorithm, "OneStep(PBT)");
  EXPECT_EQ(result.num_evaluations, 30);
  EXPECT_GE(result.best_accuracy, result.baseline_accuracy - 0.05);
}

TEST(OneStep, PipelineStepsComeFromExtendedAlphabet) {
  PipelineEvaluator evaluator = MakeEvaluator(72);
  SearchResult result =
      RunOneStep("RS", &evaluator, ParameterSpace::LowCardinality(), {Budget::Evaluations(20), 4}, 4);
  ParameterSpace parameters = ParameterSpace::LowCardinality();
  for (const PreprocessorConfig& step : result.best_pipeline.steps) {
    if (step.kind == PreprocessorKind::kBinarizer) {
      bool allowed = false;
      for (double t : parameters.binarizer_thresholds) {
        if (t == step.threshold) allowed = true;
      }
      EXPECT_TRUE(allowed);
    }
  }
}

TEST(TwoStep, RespectsTotalEvaluationBudget) {
  PipelineEvaluator evaluator = MakeEvaluator(73);
  TwoStepConfig config;
  config.algorithm = "RS";
  config.inner_budget = Budget::Evaluations(10);
  config.max_pipeline_length = 4;
  SearchResult result =
      RunTwoStep(config, &evaluator, ParameterSpace::LowCardinality(), {Budget::Evaluations(35), 5});
  EXPECT_EQ(result.algorithm, "TwoStep(RS)");
  EXPECT_EQ(result.num_evaluations, 35);  // 10+10+10+5.
}

TEST(TwoStep, BestOverRoundsIsReturned) {
  PipelineEvaluator evaluator = MakeEvaluator(74);
  TwoStepConfig config;
  config.algorithm = "RS";
  config.inner_budget = Budget::Evaluations(8);
  SearchResult result =
      RunTwoStep(config, &evaluator, ParameterSpace::LowCardinality(), {Budget::Evaluations(32), 6});
  // Re-evaluating the returned pipeline reproduces the reported accuracy.
  PipelineEvaluator check = MakeEvaluator(74);
  EvalRequest rescore;
  rescore.pipeline = result.best_pipeline;
  EXPECT_NEAR(check.Evaluate(rescore).accuracy, result.best_accuracy, 1e-12);
}

TEST(TwoStep, WorksOnHighCardinalitySpace) {
  PipelineEvaluator evaluator = MakeEvaluator(75);
  TwoStepConfig config;
  config.algorithm = "PBT";
  config.inner_budget = Budget::Evaluations(10);
  config.max_pipeline_length = 4;
  SearchResult result =
      RunTwoStep(config, &evaluator, ParameterSpace::HighCardinality(), {Budget::Evaluations(30), 7});
  EXPECT_EQ(result.num_evaluations, 30);
  EXPECT_GE(result.best_accuracy, 0.0);
}

TEST(TwoStep, ReportsTheEngineWorkOfEveryRound) {
  // The caller's prefix cache serves every round, while each round has a
  // result memo of its own: the report sums the rounds' memo lookups, so
  // its misses are exactly the evaluator's calls, and it carries the
  // thread count like a one-step report does.
  PipelineEvaluator evaluator = MakeEvaluator(77);
  auto prefix_cache = std::make_shared<TransformCache>(16u << 20);
  evaluator.AttachTransformCache(prefix_cache);
  TwoStepConfig config;
  config.algorithm = "RS";
  config.inner_budget = Budget::Evaluations(10);
  config.max_pipeline_length = 4;
  SearchOptions options{Budget::Evaluations(40), 8};
  options.num_threads = 4;
  options.cache_bytes = 16u << 20;
  SearchResult result = RunTwoStep(config, &evaluator,
                                   ParameterSpace::LowCardinality(), options);
  EXPECT_EQ(result.num_threads, 4);
  const TransformCache::Stats stats = prefix_cache->stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(result.result_cache_misses, 0);
  EXPECT_EQ(result.result_cache_misses, evaluator.num_evaluations());
}

TEST(OneStepVsTwoStep, HighCardinalityOneStepIsQuantileHeavy) {
  // Structural check of the Figure 9 mechanism: One-step on the
  // high-cardinality space overwhelmingly explores QuantileTransformer.
  PipelineEvaluator evaluator = MakeEvaluator(76);
  SearchResult one_step =
      RunOneStep("RS", &evaluator, ParameterSpace::HighCardinality(), {Budget::Evaluations(15), 8}, 4);
  size_t quantile_steps = 0, total_steps = 0;
  for (const PreprocessorConfig& step : one_step.best_pipeline.steps) {
    ++total_steps;
    if (step.kind == PreprocessorKind::kQuantileTransformer) ++quantile_steps;
  }
  EXPECT_GT(total_steps, 0u);
  // Not asserting all steps are quantile (best-of-15 may luck out), but
  // the sampled alphabet is ~99.3% QuantileTransformer variants.
  SearchSpace space = OneStepSpace(ParameterSpace::HighCardinality());
  EXPECT_GT(space.num_operators(), 4000u);
}

}  // namespace
}  // namespace autofp
