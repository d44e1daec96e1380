#include "search/two_step.h"

#include <algorithm>
#include <set>

#include "search/registry.h"
#include "util/timer.h"

namespace autofp {

SearchResult RunTwoStep(const TwoStepConfig& config,
                        EvaluatorInterface* evaluator,
                        const ParameterSpace& parameters,
                        const SearchOptions& options) {
  const Budget& total_budget = options.budget;
  const uint64_t seed = options.seed;
  AUTOFP_CHECK(total_budget.limited());
  Rng rng(seed);
  Stopwatch watch;
  SearchResult best;
  best.algorithm = "TwoStep(" + config.algorithm + ")";
  best.num_threads = options.num_threads;
  best.num_workers = options.num_workers;
  // Each inner RunSearch owns its quarantine map, so the same pipeline can
  // be quarantined in several rounds; the report counts it once.
  std::set<std::string> quarantined;
  long evaluations_used = 0;
  int round = 0;
  while (true) {
    // Remaining budget on both axes.
    Budget remaining = total_budget;
    if (remaining.max_evaluations >= 0) {
      remaining.max_evaluations -= evaluations_used;
      if (remaining.max_evaluations <= 0) break;
    }
    if (remaining.max_seconds >= 0.0) {
      remaining.max_seconds -= watch.ElapsedSeconds();
      if (remaining.max_seconds <= 0.0) break;
    }
    Budget inner = config.inner_budget;
    if (remaining.max_evaluations >= 0) {
      inner.max_evaluations =
          inner.max_evaluations >= 0
              ? std::min(inner.max_evaluations, remaining.max_evaluations)
              : remaining.max_evaluations;
    }
    if (remaining.max_seconds >= 0.0) {
      inner.max_seconds = inner.max_seconds >= 0.0
                              ? std::min(inner.max_seconds,
                                         remaining.max_seconds)
                              : remaining.max_seconds;
    }

    // Step 1: random parameter assignment.
    SearchSpace space = FixedAssignmentSpace(
        parameters.SampleAssignment(&rng), config.max_pipeline_length);
    // Step 2: short pipeline search under those parameters.
    Result<std::unique_ptr<SearchAlgorithm>> algorithm =
        MakeSearchAlgorithm(config.algorithm);
    AUTOFP_CHECK(algorithm.ok()) << algorithm.status().ToString();
    SearchOptions inner_options = options;
    inner_options.budget = inner;
    inner_options.seed = seed + 1000 * static_cast<uint64_t>(round) + 1;
    SearchResult result = RunSearch(algorithm.value().get(), evaluator, space,
                                    inner_options);
    evaluations_used += result.num_evaluations;
    best.num_evaluations += result.num_evaluations;
    best.evaluation_cost += result.evaluation_cost;
    best.prep_seconds += result.prep_seconds;
    best.train_seconds += result.train_seconds;
    best.pick_seconds += result.pick_seconds;
    best.pool_busy_seconds += result.pool_busy_seconds;
    best.num_failures += result.num_failures;
    best.num_retries += result.num_retries;
    quarantined.insert(result.quarantined_pipelines.begin(),
                       result.quarantined_pipelines.end());
    best.num_quarantine_hits += result.num_quarantine_hits;
    best.num_successes += result.num_successes;
    best.num_replayed += result.num_replayed;
    // Each round has its own result memo, so the sums count each lookup
    // once.
    best.result_cache_hits += result.result_cache_hits;
    best.result_cache_misses += result.result_cache_misses;
    best.interrupted = result.interrupted;
    best.baseline_accuracy = result.baseline_accuracy;
    if (round == 0 || result.best_accuracy > best.best_accuracy) {
      best.best_accuracy = result.best_accuracy;
      best.best_pipeline = result.best_pipeline;
    }
    ++round;
    if (result.num_evaluations == 0) break;  // inner budget too small.
    if (result.interrupted) break;  // graceful stop: no further rounds.
  }
  best.num_quarantined = static_cast<long>(quarantined.size());
  best.quarantined_pipelines.assign(quarantined.begin(), quarantined.end());
  best.elapsed_seconds = watch.ElapsedSeconds();
  return best;
}

SearchResult RunOneStep(const std::string& algorithm,
                        EvaluatorInterface* evaluator,
                        const ParameterSpace& parameters,
                        const SearchOptions& options,
                        size_t max_pipeline_length) {
  SearchSpace space = OneStepSpace(parameters, max_pipeline_length);
  Result<std::unique_ptr<SearchAlgorithm>> instance =
      MakeSearchAlgorithm(algorithm);
  AUTOFP_CHECK(instance.ok()) << instance.status().ToString();
  SearchResult result =
      RunSearch(instance.value().get(), evaluator, space, options);
  result.algorithm = "OneStep(" + algorithm + ")";
  return result;
}

}  // namespace autofp
