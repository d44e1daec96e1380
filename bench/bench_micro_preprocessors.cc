/// Micro-benchmarks (google-benchmark): fit+transform throughput of each
/// preprocessor and of representative pipelines, across data sizes.
/// These quantify the "Prep" component of the paper's Section 5.3
/// decomposition.
///
/// `--json [path]` switches to the kernel roofline report instead: each
/// preprocessor's TransformInPlace timed on the forced-scalar reference
/// and on the SIMD path, with rows/s, GB/s and the speedup, and its Fit
/// on one thread, on both paths too, as median, min and max over repeats.
/// scripts/bench_snapshot.sh commits it as BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/auto_fp.h"
#include "util/simd.h"
#include "util/stats.h"

namespace {

using namespace autofp;

Matrix MakeData(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix data(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data(r, c) = rng.Gaussian(0.0, 1.0 + static_cast<double>(c));
    }
  }
  return data;
}

void BM_Preprocessor(benchmark::State& state) {
  auto kind = static_cast<PreprocessorKind>(state.range(0));
  size_t rows = static_cast<size_t>(state.range(1));
  Matrix data = MakeData(rows, 16, 3);
  for (auto _ : state) {
    auto preprocessor = MakePreprocessor(kind);
    benchmark::DoNotOptimize(preprocessor->FitTransform(data));
  }
  state.SetLabel(KindName(kind));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * 16));
}

void PreprocessorArgs(benchmark::internal::Benchmark* bench) {
  for (PreprocessorKind kind : AllPreprocessorKinds()) {
    for (int64_t rows : {256, 2048}) {
      bench->Args({static_cast<int64_t>(kind), rows});
    }
  }
}
BENCHMARK(BM_Preprocessor)->Apply(PreprocessorArgs)
    ->Unit(benchmark::kMicrosecond);

void BM_FullPipeline(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Matrix train = MakeData(rows, 16, 5);
  Matrix valid = MakeData(rows / 4 + 1, 16, 6);
  PipelineSpec spec = PipelineSpec::FromKinds(
      {PreprocessorKind::kPowerTransformer,
       PreprocessorKind::kQuantileTransformer,
       PreprocessorKind::kStandardScaler, PreprocessorKind::kNormalizer});
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitTransformPair(spec, train, valid));
  }
}
BENCHMARK(BM_FullPipeline)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

/// Copying transform path: one fresh matrix allocated + filled per
/// application. Baseline for the in-place comparison below.
void BM_TransformCopy(benchmark::State& state) {
  auto kind = static_cast<PreprocessorKind>(state.range(0));
  size_t rows = static_cast<size_t>(state.range(1));
  Matrix data = MakeData(rows, 16, 3);
  auto preprocessor = MakePreprocessor(kind);
  preprocessor->Fit(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocessor->Transform(data));
  }
  state.SetLabel(KindName(kind));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * 16));
}

/// In-place transform path: the same kernel applied to an already-
/// resident buffer — the configuration every pipeline stage after the
/// first runs in (and every serving shard after its one copy-in). The
/// buffer is refreshed from the source between iterations outside the
/// timed region, so the delta vs BM_TransformCopy is exactly the
/// allocate + copy cost the zero-copy data plane removes per stage.
void BM_TransformInPlace(benchmark::State& state) {
  auto kind = static_cast<PreprocessorKind>(state.range(0));
  size_t rows = static_cast<size_t>(state.range(1));
  Matrix data = MakeData(rows, 16, 3);
  auto preprocessor = MakePreprocessor(kind);
  preprocessor->Fit(data);
  Matrix scratch;
  for (auto _ : state) {
    state.PauseTiming();
    scratch = data;  // reuses scratch's capacity after iteration 1
    state.ResumeTiming();
    preprocessor->TransformInPlace(scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetLabel(KindName(kind));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * 16));
}

void TransformArgs(benchmark::internal::Benchmark* bench) {
  for (PreprocessorKind kind : AllPreprocessorKinds()) {
    for (int64_t rows : {2048, 40000}) {
      bench->Args({static_cast<int64_t>(kind), rows});
    }
  }
}
BENCHMARK(BM_TransformCopy)->Apply(TransformArgs)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TransformInPlace)->Apply(TransformArgs)
    ->Unit(benchmark::kMicrosecond);

/// Whole-chain comparison: FittedPipeline::Transform (a fresh matrix per
/// stage before this PR, one fresh matrix total after) vs TransformInto
/// with a persistent scratch (zero steady-state allocations).
void BM_PipelineTransformCopy(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Matrix train = MakeData(rows, 16, 5);
  PipelineSpec spec = PipelineSpec::FromKinds(
      {PreprocessorKind::kStandardScaler, PreprocessorKind::kMinMaxScaler,
       PreprocessorKind::kNormalizer});
  FittedPipeline pipeline = FittedPipeline::Fit(spec, train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.Transform(train));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * 16));
}
BENCHMARK(BM_PipelineTransformCopy)->Arg(2048)->Arg(40000)
    ->Unit(benchmark::kMicrosecond);

void BM_PipelineTransformInto(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Matrix train = MakeData(rows, 16, 5);
  PipelineSpec spec = PipelineSpec::FromKinds(
      {PreprocessorKind::kStandardScaler, PreprocessorKind::kMinMaxScaler,
       PreprocessorKind::kNormalizer});
  FittedPipeline pipeline = FittedPipeline::Fit(spec, train);
  Matrix scratch;
  for (auto _ : state) {
    pipeline.TransformInto(train, &scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * 16));
}
BENCHMARK(BM_PipelineTransformInto)->Arg(2048)->Arg(40000)
    ->Unit(benchmark::kMicrosecond);

void BM_SpaceSampling(benchmark::State& state) {
  SearchSpace space = SearchSpace::Default();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.SampleUniform(&rng));
  }
}
BENCHMARK(BM_SpaceSampling);

void BM_SpaceMutation(benchmark::State& state) {
  SearchSpace space = SearchSpace::Default();
  Rng rng(8);
  PipelineSpec pipeline = space.SampleUniform(&rng);
  for (auto _ : state) {
    pipeline = space.Mutate(pipeline, &rng);
    benchmark::DoNotOptimize(pipeline);
  }
}
BENCHMARK(BM_SpaceMutation);

// --- Kernel roofline report (--json) ----------------------------------------

/// Wall time of one TransformInPlace over `source`. The refresh copy is
/// outside the timed region, so the number is the kernel alone.
bench::Timing TimeTransform(const Preprocessor& step, const Matrix& source,
                            bool force_scalar) {
  Matrix buffer;
  simd::ScopedForceScalar forced(force_scalar);
  return bench::TimeRepeats([&] { buffer = source; },
                            [&] {
                              step.TransformInPlace(buffer);
                              benchmark::DoNotOptimize(buffer.data().data());
                              benchmark::ClobberMemory();
                            });
}

int RunRooflineReport(const char* path) {
  constexpr size_t kRooflineRows = 8192;
  constexpr size_t kRooflineCols = 16;
  const Matrix data = MakeData(kRooflineRows, kRooflineCols, 17);
  bench::Snapshot snapshot("preprocessor_kernels");
  snapshot.Param("double_lanes", simd::kDoubleLanes);
  snapshot.Param("rows", kRooflineRows);
  snapshot.Param("cols", kRooflineCols);

  // Read + write of the whole buffer per pass: the elementwise kernels'
  // minimum traffic, making gb_per_s comparable across kernels.
  const double bytes_per_pass =
      2.0 * static_cast<double>(kRooflineRows * kRooflineCols) *
      sizeof(double);
  for (PreprocessorKind kind : AllPreprocessorKinds()) {
    auto step = MakePreprocessor(kind);
    // Off any pool, so the per-column fits run on this thread alone.
    const bench::Timing fit = bench::TimeRepeats([&] { step->Fit(data); });
    bench::Timing fit_scalar;
    {
      simd::ScopedForceScalar forced(true);
      fit_scalar = bench::TimeRepeats([&] { step->Fit(data); });
    }
    const bench::Timing scalar = TimeTransform(*step, data, true);
    const bench::Timing simd = TimeTransform(*step, data, false);
    snapshot.Cell(KindName(kind));
    snapshot.Time("scalar_ns", scalar);
    snapshot.Time("simd_ns", simd);
    snapshot.Figure("rows_per_s",
                    static_cast<double>(kRooflineRows) * 1e9 / simd.median_ns);
    snapshot.Figure("gb_per_s", bytes_per_pass / simd.median_ns);
    snapshot.Figure("speedup", scalar.median_ns / simd.median_ns);
    snapshot.Time("fit_ns", fit);
    snapshot.Figure("fit_us_per_krow",
                    fit.median_ns / static_cast<double>(kRooflineRows));
    snapshot.Time("fit_scalar_ns", fit_scalar);
    snapshot.Figure("fit_speedup", fit_scalar.median_ns / fit.median_ns);
    if (kind == PreprocessorKind::kQuantileTransformer) {
      // The fit's two parts: every column copied out and sorted, then
      // QuantileSorted filling the reference table from the sorted columns.
      std::vector<std::vector<double>> sorted(data.cols());
      const bench::Timing sort = bench::TimeRepeats([&] {
        for (size_t c = 0; c < data.cols(); ++c) {
          sorted[c] = data.Column(c);
          RadixSort(&sorted[c]);
        }
        benchmark::ClobberMemory();
      });
      const int quantiles = PreprocessorConfig::Defaults(kind).n_quantiles;
      std::vector<double> refs(static_cast<size_t>(quantiles));
      const bench::Timing table = bench::TimeRepeats([&] {
        for (const std::vector<double>& column : sorted) {
          for (int q = 0; q < quantiles; ++q) {
            refs[static_cast<size_t>(q)] = QuantileSorted(
                column, static_cast<double>(q) / (quantiles - 1));
          }
          benchmark::DoNotOptimize(refs.data());
        }
      });
      snapshot.Time("fit_sort_ns", sort);
      snapshot.Time("fit_table_ns", table);
    }
  }
  return snapshot.Write(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--json") {
    return RunRooflineReport(argc >= 3 ? argv[2] : nullptr);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
