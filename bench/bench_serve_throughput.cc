/// Serving-runtime throughput: rows/sec and tail latency of
/// Predictor::PredictSharded across thread counts and shard sizes.
///
/// The serving runtime (src/serve/) reuses the parallel-evaluator worker
/// pool to shard a batch of rows over threads; this bench shows where
/// that pays off: shards must be large enough to amortize the queue
/// round-trip, and scaling tops out once per-shard transform+predict
/// work no longer dominates. Run after changing the predictor's
/// threading or the model PredictBatch overrides.
///
/// The socket front end (`autofp_serve listen`) is measured end to end
/// by the serve_small_open and serve_bulk_dense workloads of
/// bench/e2e/run.sh.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "preprocess/pipeline_parse.h"
#include "serve/artifact.h"
#include "serve/predictor.h"
#include "util/timer.h"

namespace {

using namespace autofp;
using bench::PrintHeader;

struct Scenario {
  ModelKind kind;
  const char* pipeline;
};

void RunScenario(const Dataset& data, const Scenario& scenario,
                 const std::string& artifact_path) {
  Result<PipelineSpec> spec = ParsePipelineSpec(scenario.pipeline);
  AUTOFP_CHECK(spec.ok()) << spec.status().ToString();
  Result<ArtifactSchema> exported =
      ExportArtifact(artifact_path, data, spec.value(),
                     bench::BenchModel(scenario.kind));
  AUTOFP_CHECK(exported.ok()) << exported.status().ToString();

  // One big serving batch, re-scored under every (threads, shard) cell.
  const Matrix& rows = data.features;
  std::printf("\nmodel %s | pipeline [%s] | %zu rows x %zu cols\n",
              ModelKindName(scenario.kind).c_str(),
              spec.value().ToString().c_str(), rows.rows(), rows.cols());
  std::printf("%8s %8s %12s %10s %10s %10s\n", "threads", "shard",
              "rows/s", "p50 ms", "p95 ms", "p99 ms");
  for (int threads : {1, 2, 4, 8}) {
    Predictor::Options options;
    options.num_threads = threads;
    Predictor::LoadResult loaded = Predictor::Load(artifact_path, options);
    AUTOFP_CHECK(loaded.ok()) << loaded.status().ToString();
    const Predictor& predictor = loaded.predictor();
    for (size_t shard : {size_t{32}, size_t{256}, size_t{2048}}) {
      // Repeat until ~0.3 s of scoring so the histogram has support.
      Stopwatch wall;
      long passes = 0;
      while (wall.ElapsedSeconds() < 0.3) {
        Result<std::vector<int>> predictions =
            predictor.PredictSharded(rows, shard);
        AUTOFP_CHECK(predictions.ok()) << predictions.status().ToString();
        ++passes;
      }
      const double wall_seconds = wall.ElapsedSeconds();
      ServeStats stats = predictor.stats();
      std::printf("%8d %8zu %12.0f %10.3f %10.3f %10.3f\n", threads, shard,
                  static_cast<double>(passes) *
                      static_cast<double>(rows.rows()) / wall_seconds,
                  stats.p50_ms, stats.p95_ms, stats.p99_ms);
    }
  }
}

}  // namespace

int main() {
  PrintHeader("Serving throughput", "the serving runtime (DESIGN.md)",
              "rows/sec and per-shard tail latency of PredictSharded vs "
              "threads x shard size; percentiles are cumulative per "
              "thread-count row group");
  Result<Dataset> dataset = GetSuiteDataset("sylvine_syn");
  AUTOFP_CHECK(dataset.ok()) << dataset.status().ToString();
  const std::string artifact_path = "/tmp/autofp_bench_serve.afpa";
  const Scenario scenarios[] = {
      {ModelKind::kLogisticRegression, "StandardScaler -> PowerTransformer"},
      {ModelKind::kXgboost, "QuantileTransformer -> MinMaxScaler"},
      {ModelKind::kMlp, "Normalizer -> StandardScaler"},
  };
  for (const Scenario& scenario : scenarios) {
    RunScenario(dataset.value(), scenario, artifact_path);
  }
  std::remove(artifact_path.c_str());
  return 0;
}
