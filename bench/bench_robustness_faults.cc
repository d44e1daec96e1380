/// Robustness under injected faults: runs all 15 search algorithms with
/// deterministic fault injection at fault rates {0, 0.05, 0.2} and reports
/// best-accuracy degradation versus the fault-free run, plus the fault
/// bookkeeping (failed attempts / retries / quarantined pipelines) from
/// SearchResult. A production search service must survive degenerate
/// transforms, NaN propagation and slow evaluations; this bench shows the
/// retry + penalty-score + quarantine layer keeps every algorithm's
/// answer close to fault-free quality while never crashing and never
/// reporting a non-finite best accuracy.

#include <cmath>
#include <map>

#include "bench/bench_util.h"
#include "search/registry.h"

namespace autofp {
namespace {

constexpr double kFaultRates[] = {0.0, 0.05, 0.2};
constexpr long kBudget = 80;
constexpr uint64_t kSeed = 7;

SearchResult RunAtRate(const std::string& algorithm_name, double fault_rate,
                       const TrainValidSplit& split) {
  PipelineEvaluator evaluator(split.train, split.valid,
                              bench::BenchModel(ModelKind::kLogisticRegression));
  // The 5 s per-evaluation deadline is generous for real evaluations on
  // this dataset; only injected slowdowns exceed it.
  SearchOptions options{Budget::Evaluations(kBudget).WithEvalDeadline(5.0),
                        kSeed};
  options.fault_policy.max_retries = 2;
  options.fault_injection.fault_rate = fault_rate;
  options.fault_injection.slowdown_rate = fault_rate / 2.0;
  options.fault_injection.slowdown_seconds = 10.0;  // past the deadline.
  options.fault_injection.seed = kSeed;
  auto algorithm = MakeSearchAlgorithm(algorithm_name).value();
  return RunSearch(algorithm.get(), &evaluator, SearchSpace::Default(),
                   options);
}

}  // namespace
}  // namespace autofp

int main() {
  using namespace autofp;
  bench::PrintHeader(
      "Robustness under injected faults",
      "fault-tolerance subsystem (no paper analogue)",
      "all 15 algorithms, LR downstream, fault rates 0/0.05/0.2, "
      "80-evaluation budget, 2 retries, 5 s eval deadline");

  TrainValidSplit split = bench::PrepareScenario("wine_syn", kSeed, 400);
  std::printf("%-10s %8s %14s %14s %26s\n", "algorithm", "acc@0",
              "acc@0.05", "acc@0.2", "fail/retry/quar @0.2");

  bool all_finite = true;
  long total_failures_005 = 0;
  long total_failures_02 = 0;
  double rs_delta_005 = 0.0;
  for (const std::string& name : AllSearchAlgorithmNames()) {
    std::map<double, SearchResult> by_rate;
    for (double rate : kFaultRates) {
      by_rate[rate] = RunAtRate(name, rate, split);
      if (!std::isfinite(by_rate[rate].best_accuracy)) all_finite = false;
    }
    const SearchResult& clean = by_rate[0.0];
    const SearchResult& light = by_rate[0.05];
    const SearchResult& heavy = by_rate[0.2];
    total_failures_005 += light.num_failures;
    total_failures_02 += heavy.num_failures;
    if (name == "RS") {
      rs_delta_005 = light.best_accuracy - clean.best_accuracy;
    }
    std::printf("%-10s %8.4f %8.4f (%+.3f) %8.4f (%+.3f) %10ld/%ld/%ld\n",
                name.c_str(), clean.best_accuracy, light.best_accuracy,
                light.best_accuracy - clean.best_accuracy,
                heavy.best_accuracy,
                heavy.best_accuracy - clean.best_accuracy,
                heavy.num_failures, heavy.num_retries,
                heavy.num_quarantined);
  }

  std::printf("\nsummary: failed attempts @0.05 = %ld, @0.2 = %ld; "
              "RS best-accuracy delta @0.05 = %+.4f\n",
              total_failures_005, total_failures_02, rs_delta_005);
  AUTOFP_CHECK(all_finite) << "non-finite best accuracy under faults";
  AUTOFP_CHECK_GT(total_failures_005, 0)
      << "fault injection at rate 0.05 produced no failures";
  AUTOFP_CHECK_GT(total_failures_02, 0)
      << "fault injection at rate 0.2 produced no failures";
  AUTOFP_CHECK_LE(std::fabs(rs_delta_005), 0.02)
      << "random search degraded more than 2 accuracy points at rate 0.05";
  std::printf("OK: all algorithms completed at every fault rate\n");
  return 0;
}
