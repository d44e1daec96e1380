#include "preprocess/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "preprocess/pipeline.h"
#include "preprocess/preprocessor.h"
#include "util/random.h"
#include "util/simd.h"

namespace autofp {
namespace {

/// The property-test widths from the kernel layer's contract: every
/// remainder-lane count around the vector width, one aligned width, and
/// one wide row. Odd widths also make every row pointer unaligned,
/// covering the unaligned-offset cases.
const size_t kWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                          11, 12, 13, 14, 15, 16, 17, 64, 1000};
constexpr size_t kRows = 33;

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<uint64_t>(a) << " vs "
         << std::bit_cast<uint64_t>(b) << ")";
}

void ExpectBitIdentical(const Matrix& actual, const Matrix& expected,
                        const char* label) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t r = 0; r < actual.rows(); ++r) {
    for (size_t c = 0; c < actual.cols(); ++c) {
      ASSERT_TRUE(BitEqual(actual(r, c), expected(r, c)))
          << label << " at (" << r << ", " << c << "), cols="
          << actual.cols();
    }
  }
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t cols) {
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      switch (rng.UniformInt(0, 9)) {
        case 0: out(r, c) = 0.0; break;
        case 1: out(r, c) = -0.0; break;
        case 2: out(r, c) = static_cast<double>(rng.UniformInt(-2, 2)); break;
        default: out(r, c) = rng.Uniform(-10.0, 10.0); break;
      }
    }
  }
  return out;
}

/// Runs `apply` on the SIMD path and on the forced-scalar reference and
/// requires them to agree bit for bit — the kernel layer's central
/// exactness property.
template <typename Fn>
void CheckAllPaths(const Matrix& input, Fn apply, const char* label) {
  Matrix reference = input;
  {
    simd::ScopedForceScalar forced(true);
    apply(reference);
  }
  Matrix simd_row = input;
  apply(simd_row);
  ExpectBitIdentical(simd_row, reference, label);
}

TEST(Kernels, BinarizeBitIdenticalAcrossPaths) {
  Rng rng(1);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    CheckAllPaths(
        input, [](Matrix& m) { kernels::Binarize(m, 0.25); }, "binarize");
  }
}

TEST(Kernels, ScaleColumnsBitIdenticalAcrossPaths) {
  Rng rng(2);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    std::vector<double> scales(cols);
    for (double& s : scales) s = rng.Uniform(0.5, 3.0);
    CheckAllPaths(
        input, [&](Matrix& m) { kernels::ScaleColumns(m, scales); },
        "scale_columns");
  }
}

TEST(Kernels, ShiftScaleColumnsBitIdenticalAcrossPaths) {
  Rng rng(3);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    std::vector<double> shifts(cols), scales(cols);
    for (double& s : shifts) s = rng.Uniform(-5.0, 5.0);
    for (double& s : scales) s = rng.Uniform(0.5, 3.0);
    CheckAllPaths(
        input,
        [&](Matrix& m) { kernels::ShiftScaleColumns(m, shifts, scales); },
        "shift_scale_columns");
  }
}

TEST(Kernels, NormalizeRowsBitIdenticalAcrossPaths) {
  Rng rng(4);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    for (NormKind kind : {NormKind::kL1, NormKind::kL2, NormKind::kMax}) {
      CheckAllPaths(
          input, [&](Matrix& m) { kernels::NormalizeRows(m, kind); },
          "normalize_rows");
    }
  }
}

TEST(Kernels, PowerTransformBitIdenticalAcrossPaths) {
  Rng rng(5);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    std::vector<double> lambdas(cols), means(cols), stddevs(cols);
    for (double& l : lambdas) l = rng.Uniform(-2.0, 3.0);
    for (double& m : means) m = rng.Uniform(-1.0, 1.0);
    for (double& s : stddevs) s = rng.Uniform(0.5, 2.0);
    for (bool standardize : {false, true}) {
      CheckAllPaths(
          input,
          [&](Matrix& m) {
            kernels::PowerTransformColumns(m, lambdas, means, stddevs,
                                           standardize);
          },
          "power_transform");
    }
  }
}

TEST(Kernels, QuantileTransformBitIdenticalAcrossPaths) {
  Rng rng(6);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    std::vector<std::vector<double>> references(cols);
    for (auto& table : references) {
      table.resize(static_cast<size_t>(rng.UniformInt(2, 12)));
      for (double& x : table) x = rng.Uniform(-12.0, 12.0);
      std::sort(table.begin(), table.end());
    }
    for (bool to_normal : {false, true}) {
      CheckAllPaths(
          input,
          [&](Matrix& m) {
            kernels::QuantileTransformColumns(m, references, to_normal);
          },
          "quantile_transform");
    }
  }
}

TEST(Kernels, FitReductionsBitIdenticalAcrossPaths) {
  Rng rng(7);
  for (size_t cols : kWidths) {
    const Matrix input = RandomMatrix(rng, kRows, cols);
    std::vector<double> means(cols);
    for (double& m : means) m = rng.Uniform(-1.0, 1.0);

    // Forced-scalar reference for each reduction.
    std::vector<double> ref_absmax, ref_mins, ref_maxs, ref_sums, ref_sq;
    {
      simd::ScopedForceScalar forced(true);
      kernels::ColumnAbsMax(input, &ref_absmax);
      kernels::ColumnMinMax(input, &ref_mins, &ref_maxs);
      kernels::ColumnSums(input, &ref_sums);
      kernels::ColumnSquaredDevSums(input, means, &ref_sq);
    }

    std::vector<double> absmax, mins, maxs, sums, sq;
    kernels::ColumnAbsMax(input, &absmax);
    kernels::ColumnMinMax(input, &mins, &maxs);
    kernels::ColumnSums(input, &sums);
    kernels::ColumnSquaredDevSums(input, means, &sq);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_TRUE(BitEqual(absmax[c], ref_absmax[c])) << "cols=" << cols;
      EXPECT_TRUE(BitEqual(mins[c], ref_mins[c]));
      EXPECT_TRUE(BitEqual(maxs[c], ref_maxs[c]));
      EXPECT_TRUE(BitEqual(sums[c], ref_sums[c]));
      EXPECT_TRUE(BitEqual(sq[c], ref_sq[c]));
    }
  }
}

TEST(Kernels, FitReductionsPreserveSignedZeroTies) {
  // A column of all -0.0 with one +0.0: the scalar strict-comparison
  // updates keep the first-seen -0.0 as both min and max; the vector
  // paths must reproduce that exactly (Min/Max intrinsics would not).
  Matrix data(kRows, simd::kDoubleLanes * 2 + 1);
  for (size_t r = 0; r < data.rows(); ++r) {
    for (size_t c = 0; c < data.cols(); ++c) data(r, c) = -0.0;
  }
  for (size_t c = 0; c < data.cols(); ++c) data(kRows / 2, c) = 0.0;
  std::vector<double> mins, maxs;
  kernels::ColumnMinMax(data, &mins, &maxs);
  for (size_t c = 0; c < data.cols(); ++c) {
    EXPECT_TRUE(BitEqual(mins[c], -0.0));
    EXPECT_TRUE(BitEqual(maxs[c], -0.0));
  }
}

// --- Full preprocessors and pipelines ---------------------------------------

TEST(Kernels, PreprocessorsFitTransformBitIdenticalAcrossPaths) {
  Rng rng(8);
  for (int kind_index = 0; kind_index < kNumPreprocessorKinds; ++kind_index) {
    const auto kind = static_cast<PreprocessorKind>(kind_index);
    const Matrix train = RandomMatrix(rng, kRows, 9);
    const Matrix apply = RandomMatrix(rng, 11, 9);

    Matrix ref_train = train, ref_apply = apply;
    {
      simd::ScopedForceScalar forced(true);
      auto step = MakePreprocessor(kind);
      step->Fit(ref_train);
      step->TransformInPlace(ref_train);
      step->TransformInPlace(ref_apply);
    }

    Matrix fit_train = train, fit_apply = apply;
    auto step = MakePreprocessor(kind);
    step->Fit(fit_train);
    step->TransformInPlace(fit_train);
    step->TransformInPlace(fit_apply);
    ExpectBitIdentical(fit_train, ref_train, "preprocessor train");
    ExpectBitIdentical(fit_apply, ref_apply, "preprocessor apply");
  }
}

/// Touches every kernel family: shift-scale, row norms, Power, Quantile.
PipelineSpec ReferencePipelineSpec() {
  return PipelineSpec::FromKinds(
      {PreprocessorKind::kStandardScaler, PreprocessorKind::kNormalizer,
       PreprocessorKind::kPowerTransformer, PreprocessorKind::kMinMaxScaler,
       PreprocessorKind::kQuantileTransformer});
}

/// The forced-scalar step-by-step chain every pipeline entry point must
/// reproduce bit for bit.
TransformedPair ScalarReferenceChain(const PipelineSpec& spec,
                                     const Matrix& train,
                                     const Matrix& valid) {
  simd::ScopedForceScalar forced(true);
  TransformedPair reference{train, valid};
  for (const PreprocessorConfig& config : spec.steps) {
    auto step = MakePreprocessor(config);
    step->Fit(reference.train);
    step->TransformInPlace(reference.train);
    step->TransformInPlace(reference.valid);
  }
  return reference;
}

TEST(Kernels, PipelineEntryPointsBitIdenticalToScalarReference) {
  // 300 rows: the shape of a search evaluation, through every way the
  // data plane runs a pipeline.
  Rng rng(9);
  const Matrix train = RandomMatrix(rng, 300, 5);
  const Matrix valid = RandomMatrix(rng, 80, 5);
  const PipelineSpec spec = ReferencePipelineSpec();
  const TransformedPair reference = ScalarReferenceChain(spec, train, valid);

  const TransformedPair pair = FitTransformPair(spec, train, valid);
  ExpectBitIdentical(pair.train, reference.train, "pipeline train");
  ExpectBitIdentical(pair.valid, reference.valid, "pipeline valid");

  TransformScratch scratch;
  Result<SharedTransformedPair> shared = CheckedFitTransformPairCached(
      spec, train, valid, nullptr, "test", &scratch);
  ASSERT_TRUE(shared.ok());
  ExpectBitIdentical(*shared.value().train, reference.train,
                     "scratch train");
  ExpectBitIdentical(*shared.value().valid, reference.valid,
                     "scratch valid");

  // The serving route: fit once, then transform through a reused buffer.
  const FittedPipeline fitted = FittedPipeline::Fit(spec, train);
  Matrix out;
  fitted.TransformInto(train, &out);
  ExpectBitIdentical(out, reference.train, "fitted train");
  fitted.TransformInto(valid, &out);
  ExpectBitIdentical(out, reference.valid, "fitted valid");
}

TEST(Kernels, BorrowedInputsMatchOwnedOnUncachedScratchPath) {
  // Dist workers hand the uncached path read-only views of the mmap'd
  // dataset; the chain must copy them into scratch, never write through.
  Rng rng(10);
  const Matrix train = RandomMatrix(rng, 300, 7);
  const Matrix valid = RandomMatrix(rng, 120, 7);
  const Matrix train_view =
      Matrix::WrapConstRowMajor(train.Raw(), train.rows(), train.cols(),
                                nullptr);
  const Matrix valid_view =
      Matrix::WrapConstRowMajor(valid.Raw(), valid.rows(), valid.cols(),
                                nullptr);
  const Matrix train_before = train;
  const Matrix valid_before = valid;
  const PipelineSpec spec = ReferencePipelineSpec();

  TransformScratch owned_scratch;
  Result<SharedTransformedPair> owned = CheckedFitTransformPairCached(
      spec, train_before, valid_before, nullptr, "owned", &owned_scratch);
  ASSERT_TRUE(owned.ok());
  TransformScratch borrowed_scratch;
  Result<SharedTransformedPair> borrowed = CheckedFitTransformPairCached(
      spec, train_view, valid_view, nullptr, "borrowed", &borrowed_scratch);
  ASSERT_TRUE(borrowed.ok());

  EXPECT_FALSE(borrowed.value().train->borrowed());
  ExpectBitIdentical(*borrowed.value().train, *owned.value().train,
                     "borrowed train");
  ExpectBitIdentical(*borrowed.value().valid, *owned.value().valid,
                     "borrowed valid");
  ExpectBitIdentical(train, train_before, "train source");
  ExpectBitIdentical(valid, valid_before, "valid source");
}

}  // namespace
}  // namespace autofp
