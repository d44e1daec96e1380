/// Table 5: dominant performance bottleneck by scenario — dataset
/// dimensionality (high/low) x size (small/medium/large) x downstream
/// model, for RS / PBT / TEVO_H / TEVO_Y. The paper's finding: "Train"
/// dominates almost everywhere; LR on low-dimensional data shifts toward
/// "Prep" (or mixed Prep/Train).

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/run_journal.h"
#include "util/timer.h"
#include "search/random_search.h"
#include "search/registry.h"

int main() {
  using namespace autofp;
  bench::PrintHeader(
      "bench_tab5_bottleneck", "Table 5",
      "Dominant cost component per (dimensionality x size x model), "
      "averaged over RS/PBT/TEVO_H/TEVO_Y under a wall-clock budget.");

  struct Bucket {
    const char* dimensions;
    const char* size;
    const char* dataset;
    size_t max_rows;
  };
  // Representative of the paper's buckets: high-dim; low-dim small /
  // medium / large (size grows with retained rows).
  const Bucket buckets[] = {
      {"High", "All", "jasmine_syn", 600},
      {"Low", "Small", "blood_syn", 400},
      {"Low", "Medium", "electricity_syn", 2000},
      {"Low", "Large", "higgs_syn", 6000},
  };
  const std::vector<std::string> algorithms = {"RS", "PBT", "TEVO_H",
                                               "TEVO_Y"};
  SearchSpace space = SearchSpace::Default();

  std::printf("%-6s %-8s %-16s %-6s %6s %6s %6s  %s\n", "Dims", "Size",
              "dataset", "model", "pick%", "prep%", "train%", "bottleneck");
  for (const Bucket& bucket : buckets) {
    TrainValidSplit split =
        bench::PrepareScenario(bucket.dataset, 8, bucket.max_rows);
    for (ModelKind model_kind : bench::BenchModels()) {
      double pick = 0.0, prep = 0.0, train = 0.0;
      for (const std::string& name : algorithms) {
        PipelineEvaluator evaluator(split.train, split.valid,
                                    bench::HeavyModel(model_kind));
        auto algorithm = MakeSearchAlgorithm(name);
        SearchResult result =
            RunSearch(algorithm.value().get(), &evaluator, space, {Budget::Seconds(0.35), 44});
        pick += result.pick_seconds;
        prep += result.prep_seconds;
        train += result.train_seconds;
      }
      double total = pick + prep + train;
      if (total <= 0.0) total = 1.0;
      const char* bottleneck;
      double prep_pct = prep / total, train_pct = train / total;
      if (prep_pct > 0.55) {
        bottleneck = "Prep";
      } else if (train_pct > 0.55) {
        bottleneck = "Train";
      } else {
        bottleneck = prep_pct > train_pct ? "Prep/Train" : "Train/Prep";
      }
      std::printf("%-6s %-8s %-16s %-6s %6.1f %6.1f %6.1f  %s\n",
                  bucket.dimensions, bucket.size, bucket.dataset,
                  ModelKindName(model_kind).c_str(), 100.0 * pick / total,
                  100.0 * prep / total, 100.0 * train / total, bottleneck);
    }
  }
  std::printf("\nPaper shape: Train dominates for XGB/MLP in every bucket; "
              "LR on low-dimensional data leans to Prep.\n");

  // -------------------------------------------------------------------------
  // Evaluation-engine scaling: the same RS search at 1/2/4/8 worker
  // threads with a prefix-transform cache attached and the result memo
  // on. A fixed evaluation budget keeps the work constant, so elapsed-time
  // ratios are parallel speedup (only meaningful on a multi-core machine).
  std::printf("\n--- batch engine scaling (RS, fixed 160-evaluation budget) "
              "---\n");
  std::printf("%-8s %10s %9s %12s %12s\n", "threads", "elapsed_s", "speedup",
              "xform-hit%", "result-hit%");
  {
    TrainValidSplit split = bench::PrepareScenario("electricity_syn", 8, 2000);
    double baseline_seconds = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      PipelineEvaluator evaluator(
          split.train, split.valid,
          bench::HeavyModel(ModelKind::kLogisticRegression));
      auto prefix_cache = std::make_shared<TransformCache>(64u << 20);
      evaluator.AttachTransformCache(prefix_cache);
      RandomSearch rs(/*batch_size=*/16);
      SearchOptions options{Budget::Evaluations(160), 44};
      options.num_threads = threads;
      options.cache_bytes = 64u << 20;
      SearchResult result = RunSearch(&rs, &evaluator, space, options);
      if (threads == 1) baseline_seconds = result.elapsed_seconds;
      const TransformCache::Stats xform = prefix_cache->stats();
      long xform_lookups = xform.hits + xform.misses;
      long result_lookups =
          result.result_cache_hits + result.result_cache_misses;
      std::printf("%-8d %10.3f %8.2fx %11.1f%% %11.1f%%\n", threads,
                  result.elapsed_seconds,
                  result.elapsed_seconds > 0.0
                      ? baseline_seconds / result.elapsed_seconds
                      : 0.0,
                  xform_lookups > 0
                      ? 100.0 * static_cast<double>(xform.hits) /
                            static_cast<double>(xform_lookups)
                      : 0.0,
                  result_lookups > 0
                      ? 100.0 * static_cast<double>(result.result_cache_hits) /
                            static_cast<double>(result_lookups)
                      : 0.0);
    }
  }
  std::printf("\nExpected shape on a multi-core machine: near-linear speedup "
              "to the physical core count (>= 2.5x at 4 threads for RS, "
              "whose batches keep every worker busy); the transform cache "
              "hit rate climbs as the search re-visits shared prefixes.\n");

  // -------------------------------------------------------------------------
  // Write-ahead journal overhead: the same RS search with and without an
  // fsync'd run journal attached. The per-evaluation cost is one small
  // record build + write + fsync; it should be dwarfed by model training.
  std::printf("\n--- run journal overhead (RS, fixed 160-evaluation budget) "
              "---\n");
  std::printf("%-12s %10s %16s\n", "journal", "elapsed_s", "us/evaluation");
  {
    TrainValidSplit split = bench::PrepareScenario("electricity_syn", 8, 2000);
    double plain_seconds = 0.0;
    for (bool journaled : {false, true}) {
      PipelineEvaluator evaluator(
          split.train, split.valid,
          bench::HeavyModel(ModelKind::kLogisticRegression));
      RandomSearch rs(/*batch_size=*/16);
      SearchOptions options{Budget::Evaluations(160), 44};
      std::unique_ptr<RunJournalWriter> writer;
      std::string journal_path = "/tmp/bench_journal_overhead.journal";
      if (journaled) {
        auto created = RunJournalWriter::Create(journal_path, 1, 2);
        if (!created.ok()) {
          std::printf("journal create failed: %s\n",
                      created.status().ToString().c_str());
          break;
        }
        writer = std::move(created.value());
        options.journal = writer.get();
      }
      SearchResult result = RunSearch(&rs, &evaluator, space, options);
      if (!journaled) plain_seconds = result.elapsed_seconds;
      double overhead_us =
          journaled && result.num_evaluations > 0
              ? 1e6 * (result.elapsed_seconds - plain_seconds) /
                    static_cast<double>(result.num_evaluations)
              : 0.0;
      std::printf("%-12s %10.3f %16.1f\n", journaled ? "fsync" : "off",
                  result.elapsed_seconds, overhead_us);
      writer.reset();
      if (journaled) std::remove(journal_path.c_str());
    }
  }
  std::printf("\nExpected shape: journal overhead is tens of microseconds "
              "per evaluation (one ~100-byte append + fsync), i.e. noise "
              "next to even the cheapest LR training step.\n");

  // -------------------------------------------------------------------------
  // Data plane: the same evaluation stream with fresh buffers per
  // evaluation (scratch = nullptr: every result is an owned allocation)
  // vs a persistent per-caller TransformScratch (the worker-loop
  // configuration: transforms run in place through one reused arena).
  std::printf("\n--- data plane: fresh buffers vs reused scratch (LR, "
              "uncached) ---\n");
  std::printf("%-14s %10s %10s\n", "buffers", "elapsed_s", "evals/s");
  {
    TrainValidSplit split = bench::PrepareScenario("electricity_syn", 8, 2000);
    PipelineEvaluator evaluator(
        split.train, split.valid,
        bench::HeavyModel(ModelKind::kLogisticRegression));
    Rng rng(44);
    std::vector<EvalRequest> requests;
    for (int i = 0; i < 120; ++i) {
      EvalRequest request;
      request.pipeline = space.SampleUniform(&rng);
      request.seed = EvalRequest::DeriveSeed(44, request.pipeline, 1.0, i);
      requests.push_back(std::move(request));
    }
    double fresh_rate = 0.0;
    for (bool reuse_scratch : {false, true}) {
      TransformScratch scratch;
      Stopwatch watch;
      for (const EvalRequest& request : requests) {
        evaluator.Evaluate(request, reuse_scratch ? &scratch : nullptr);
      }
      double elapsed = watch.ElapsedSeconds();
      double rate = elapsed > 0.0
                        ? static_cast<double>(requests.size()) / elapsed
                        : 0.0;
      if (!reuse_scratch) fresh_rate = rate;
      std::printf("%-14s %10.3f %10.1f",
                  reuse_scratch ? "reused-scratch" : "fresh", elapsed, rate);
      if (reuse_scratch && fresh_rate > 0.0) {
        std::printf("  (%.2fx)", rate / fresh_rate);
      }
      std::printf("\n");
    }
  }
  std::printf("\nExpected shape: scratch reuse wins most on preprocessing-"
              "bound configurations (LR + wide pipelines), where the copy-"
              "and-allocate traffic this PR removes was a visible slice of "
              "each evaluation.\n");
  return 0;
}
