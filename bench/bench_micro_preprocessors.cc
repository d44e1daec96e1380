/// Micro-benchmarks (google-benchmark): fit+transform throughput of each
/// preprocessor and of representative pipelines, across data sizes.
/// These quantify the "Prep" component of the paper's Section 5.3
/// decomposition.
///
/// `--json [path]` switches to the kernel roofline report instead: each
/// preprocessor's TransformInPlace timed on the forced-scalar reference
/// and on the SIMD path, with rows/s, GB/s and the speedup. scripts/bench_snapshot.sh commits it as
/// BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "core/auto_fp.h"
#include "util/simd.h"

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

/// Best-of-N wall time of one TransformInPlace over `source`, in
/// nanoseconds. The refresh copy is outside the timed region, so the
/// number is the kernel alone.
double TimeTransformNs(const Preprocessor& step, const Matrix& source,
                       bool force_scalar) {
  constexpr int kReps = 9;  // 1 warmup + best of 8
  Matrix buffer;
  simd::ScopedForceScalar forced(force_scalar);
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    buffer = source;
    const auto start = std::chrono::steady_clock::now();
    step.TransformInPlace(buffer);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    benchmark::DoNotOptimize(buffer);
    if (rep == 0) continue;
    if (best == 0.0 || ns < best) best = ns;
  }
  return best;
}

int RunRooflineReport(const char* path) {
  constexpr size_t kRooflineRows = 8192;
  constexpr size_t kRooflineCols = 16;
  const Matrix data = MakeData(kRooflineRows, kRooflineCols, 17);

  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"backend\": \"%s\",\n", simd::kBackendName);
  std::fprintf(out, "  \"double_lanes\": %zu,\n", simd::kDoubleLanes);
  std::fprintf(out, "  \"rows\": %zu,\n", kRooflineRows);
  std::fprintf(out, "  \"cols\": %zu,\n", kRooflineCols);
  std::fprintf(out, "  \"kernels\": [\n");

  const auto kinds = AllPreprocessorKinds();
  // Read + write of the whole buffer per pass: the elementwise kernels'
  // minimum traffic, making gb_per_s comparable across kernels.
  const double bytes_per_pass =
      2.0 * static_cast<double>(kRooflineRows * kRooflineCols) *
      sizeof(double);
  for (size_t i = 0; i < kinds.size(); ++i) {
    const PreprocessorKind kind = kinds[i];
    auto step = MakePreprocessor(kind);
    step->Fit(data);
    const double scalar_ns = TimeTransformNs(*step, data, true);
    const double simd_row_ns = TimeTransformNs(*step, data, false);
    std::fprintf(
        out,
        "    {\"kernel\": \"%s\", \"scalar_row_major_ns\": %.0f, "
        "\"simd_row_major_ns\": %.0f, \"rows_per_s\": %.0f, "
        "\"gb_per_s\": %.2f, \"speedup_simd_row\": %.2f}%s\n",
        KindName(kind).c_str(), scalar_ns, simd_row_ns,
        static_cast<double>(kRooflineRows) * 1e9 / simd_row_ns,
        bytes_per_pass / simd_row_ns,  // bytes/ns == GB/s
        scalar_ns / simd_row_ns, i + 1 < kinds.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
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
