/// Micro-benchmarks (google-benchmark): training throughput of the three
/// downstream models — the "Train" component of the paper's Section 5.3
/// decomposition, which the paper identifies as the dominant bottleneck.
///
/// `--json [path]` switches to the model-kernel roofline report instead:
/// the SIMD primitives the model inner loops ride (Dot, Axpy, the
/// branchless histogram binning, the ReferenceStats Welford update) timed
/// scalar vs vectorized, with element throughput and speedups, plus one
/// LR Train split into its per-epoch forward phase and gradient sum, as
/// median, min and max over repeats. scripts/bench_snapshot.sh commits it as
/// BENCH_model_kernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/auto_fp.h"
#include "data/synthetic.h"
#include "ml/logistic_regression.h"
#include "serve/artifact.h"
#include "util/simd.h"

namespace {

using namespace autofp;

Dataset MakeDataset(size_t rows, int classes, size_t cols = 16) {
  SyntheticSpec spec;
  spec.name = "micro";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = rows;
  spec.cols = cols;
  spec.num_classes = classes;
  spec.seed = 11;
  return GenerateSynthetic(spec);
}

void BM_ModelTrain(benchmark::State& state) {
  auto kind = static_cast<ModelKind>(state.range(0));
  size_t rows = static_cast<size_t>(state.range(1));
  int classes = static_cast<int>(state.range(2));
  Dataset data = MakeDataset(rows, classes);
  ModelConfig config = ModelConfig::Defaults(kind);
  for (auto _ : state) {
    auto model = MakeClassifier(config);
    model->Train(data.features, data.labels, classes);
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(ModelKindName(kind) + "/" + std::to_string(classes) +
                 "cls");
}

void ModelArgs(benchmark::internal::Benchmark* bench) {
  for (int64_t kind : {0, 1, 2}) {
    for (int64_t rows : {256, 1024}) {
      for (int64_t classes : {2, 5}) {
        bench->Args({kind, rows, classes});
      }
    }
  }
}
BENCHMARK(BM_ModelTrain)->Apply(ModelArgs)->Unit(benchmark::kMillisecond);

void BM_ModelPredictBatch(benchmark::State& state) {
  // Inference throughput: the base-class per-row loop
  // (`Classifier::PredictBatch`, called non-virtually) vs the real batch
  // override GBDT/MLP provide — the path the serving runtime
  // (src/serve/) rides.
  auto kind = static_cast<ModelKind>(state.range(0));
  const bool batch_path = state.range(1) != 0;
  Dataset data = MakeDataset(2048, 2);
  auto model = MakeClassifier(ModelConfig::Defaults(kind));
  model->Train(data.features, data.labels, 2);
  for (auto _ : state) {
    std::vector<int> predictions =
        batch_path ? model->PredictBatch(data.features)
                   : model->Classifier::PredictBatch(data.features);
    benchmark::DoNotOptimize(predictions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.features.rows()));
  state.SetLabel(ModelKindName(kind) + (batch_path ? "/batch" : "/per-row"));
}
BENCHMARK(BM_ModelPredictBatch)
    ->Args({1, 0})->Args({1, 1})->Args({2, 0})->Args({2, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_FullEvaluation(benchmark::State& state) {
  // One complete pipeline evaluation: prep + train + score, the unit the
  // search budgets count.
  Dataset data = MakeDataset(512, 2);
  Rng rng(12);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &rng);
  auto kind = static_cast<ModelKind>(state.range(0));
  PipelineEvaluator evaluator(split.train, split.valid,
                              ModelConfig::Defaults(kind));
  EvalRequest request;
  request.pipeline = PipelineSpec::FromKinds(
      {PreprocessorKind::kPowerTransformer, PreprocessorKind::kMinMaxScaler});
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(request));
  }
  state.SetLabel(ModelKindName(kind));
}
BENCHMARK(BM_FullEvaluation)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- Model-kernel roofline report (--json) ----------------------------------

/// One kernel's cell: scalar and vectorized timings plus the element rate
/// and speedup of the medians.
void AddKernel(bench::Snapshot* snapshot, const char* name,
               const bench::Timing& scalar, const bench::Timing& simd,
               double elements) {
  snapshot->Cell(name);
  snapshot->Time("scalar_ns", scalar);
  snapshot->Time("simd_ns", simd);
  snapshot->Figure("elements_per_s", elements * 1e9 / simd.median_ns);
  snapshot->Figure("speedup", scalar.median_ns / simd.median_ns);
}

int RunModelRooflineReport(const char* path) {
  constexpr size_t kN = 1024;        // one GEMM row / LR feature vector
  constexpr size_t kBatch = 4096;    // rows per pass
  Rng rng(23);
  std::vector<double> a(kN), b(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
  }
  bench::Snapshot snapshot("model_kernels");
  snapshot.Param("double_lanes", simd::kDoubleLanes);

  // Dot: the MLP/LSTM GEMM and LR logit primitive. kBatch dots of kN.
  double acc = 0.0;
  const bench::Timing dot_scalar = bench::TimeRepeats([&] {
    for (size_t i = 0; i < kBatch; ++i) {
      acc += simd::DotScalar(a.data(), b.data(), kN);
    }
  });
  const bench::Timing dot_simd = bench::TimeRepeats([&] {
    for (size_t i = 0; i < kBatch; ++i) {
      acc += simd::Dot(a.data(), b.data(), kN);
    }
  });
  benchmark::DoNotOptimize(acc);
  AddKernel(&snapshot, "dot_1024", dot_scalar, dot_simd,
            static_cast<double>(kBatch * kN));

  // Axpy: the backward-pass gradient accumulation primitive.
  std::vector<double> y(kN, 0.0);
  const auto axpy = [&] {
    for (size_t i = 0; i < kBatch; ++i) {
      simd::Axpy(1e-9, a.data(), y.data(), kN);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  };
  bench::Timing axpy_scalar;
  {
    simd::ScopedForceScalar forced(true);
    axpy_scalar = bench::TimeRepeats(axpy);
  }
  const bench::Timing axpy_simd = bench::TimeRepeats(axpy);
  AddKernel(&snapshot, "axpy_1024", axpy_scalar, axpy_simd,
            static_cast<double>(kBatch * kN));

  // GBDT histogram binning: branchless lower-bound vs std::lower_bound
  // over a 256-edge table (the tree builder's per-row hot path).
  std::vector<double> edges(256);
  for (double& e : edges) e = rng.Uniform(-3.0, 3.0);
  std::sort(edges.begin(), edges.end());
  std::vector<double> values(kBatch);
  for (double& v : values) v = rng.Uniform(-4.0, 4.0);
  size_t bins = 0;
  const bench::Timing bin_scalar = bench::TimeRepeats([&] {
    for (double v : values) {
      bins += static_cast<size_t>(
          std::lower_bound(edges.begin(), edges.end(), v) - edges.begin());
    }
  });
  const bench::Timing bin_branchless = bench::TimeRepeats([&] {
    for (double v : values) {
      bins += simd::LowerBoundIndex(edges.data(), edges.size(), v);
    }
  });
  benchmark::DoNotOptimize(bins);
  AddKernel(&snapshot, "histogram_binning_256", bin_scalar, bin_branchless,
            static_cast<double>(kBatch));

  // Streaming moments: the Welford update the export stats and the drift
  // window share (ReferenceStats::ObserveRow), 16 columns per row.
  const Dataset stream_data = MakeDataset(kBatch, 2);
  const Matrix& stream_rows = stream_data.features;
  ReferenceStats moments;
  const auto observe = [&] {
    moments.Reset(stream_rows.cols());
    for (size_t r = 0; r < stream_rows.rows(); ++r) {
      moments.ObserveRow(stream_rows.RowPtr(r), stream_rows.cols());
    }
    benchmark::DoNotOptimize(moments.mean.data());
    benchmark::ClobberMemory();
  };
  bench::Timing moments_scalar;
  {
    simd::ScopedForceScalar forced(true);
    moments_scalar = bench::TimeRepeats(observe);
  }
  const bench::Timing moments_simd = bench::TimeRepeats(observe);
  AddKernel(&snapshot, "running_moments_16col", moments_scalar, moments_simd,
            static_cast<double>(stream_rows.size()));

  // LR Train at the search workloads' shape (9600x8, 2 classes) on one
  // thread (the bench is off any pool), and one epoch's two phases: the
  // forward phase idle pool workers may split into row blocks, and the
  // gradient sum that stays on the caller.
  const Dataset lr_data = MakeDataset(9600, 2, 8);
  const ModelConfig lr_config =
      ModelConfig::Defaults(ModelKind::kLogisticRegression);
  const bench::Timing lr_train = bench::TimeRepeats([&] {
    LogisticRegression model(lr_config);
    model.Train(lr_data.features, lr_data.labels, 2);
    benchmark::DoNotOptimize(model);
  });
  std::vector<double> lr_weights(2 * 9);
  for (double& w : lr_weights) w = rng.Uniform(-0.5, 0.5);
  std::vector<double> lr_residuals(lr_data.features.rows() * 2);
  std::vector<double> lr_grad(lr_weights.size());
  const bench::Timing lr_forward = bench::TimeRepeats([&] {
    LogisticRegression::ForwardRows(lr_data.features, lr_data.labels,
                                    lr_weights.data(), 2, 0,
                                    lr_data.features.rows(),
                                    lr_residuals.data());
    benchmark::DoNotOptimize(lr_residuals.data());
    benchmark::ClobberMemory();
  });
  const bench::Timing lr_gradient = bench::TimeRepeats([&] {
    std::fill(lr_grad.begin(), lr_grad.end(), 0.0);
    LogisticRegression::AccumulateGradient(
        lr_data.features, lr_residuals.data(), 2, lr_grad.data());
    benchmark::DoNotOptimize(lr_grad.data());
    benchmark::ClobberMemory();
  });
  snapshot.Cell("lr_train_9600x8_2cls");
  snapshot.Time("train_ns", lr_train);
  snapshot.Time("epoch_forward_ns", lr_forward);
  snapshot.Time("epoch_gradient_ns", lr_gradient);
  snapshot.Figure("epochs", lr_config.lr_epochs);
  snapshot.Figure("forward_share",
                  lr_forward.median_ns /
                      (lr_forward.median_ns + lr_gradient.median_ns));

  return snapshot.Write(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--json") {
    return RunModelRooflineReport(argc >= 3 ? argv[2] : nullptr);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
