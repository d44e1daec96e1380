#include "preprocess/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  // Rows run down each column in blocks of 256 lanes, so the row counts
  // cover a short block, odd tails and a block boundary. Special values
  // reach the clamp (+-1e300, +-inf), the NaN -> 0 rule and both sides of
  // the sign Select (+-0); lambda exactly 0 and 2 take the log branches.
  const double kSpecial[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e300,
                             -1e300};
  Rng rng(5);
  for (size_t rows : {size_t{1}, size_t{3}, kRows, size_t{257}}) {
    for (size_t cols : kWidths) {
      Matrix input = RandomMatrix(rng, rows, cols);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          if (rng.UniformInt(0, 7) == 0) {
            input(r, c) = kSpecial[rng.UniformInt(0, 6)];
          }
        }
      }
      std::vector<double> lambdas(cols), means(cols), stddevs(cols);
      for (double& l : lambdas) l = rng.Uniform(-2.0, 3.0);
      lambdas[0] = 0.0;
      if (cols > 1) lambdas[1] = 2.0;
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
}

TEST(Kernels, YeoJohnsonTrialBitIdenticalAcrossPaths) {
  // One likelihood trial of the Power fit: Log1pAbs down a column, then
  // YeoJohnson at one lambda, including the log branches' unclamped
  // +-log1p(|x|) and lambdas just inside and outside their 1e-8 window.
  const double kSpecial[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), 1e300,
                             -1e300};
  const double kLambdas[] = {0.0,         2.0,   5e-9, -5e-9, 2.0 - 5e-9,
                             2.0 + 2e-8, 2e-8, -4.0, 6.0,  0.37};
  Rng rng(12);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{7},
                   size_t{8}, size_t{9}, size_t{257}}) {
    std::vector<double> x(n);
    for (double& v : x) {
      v = rng.UniformInt(0, 5) == 0 ? kSpecial[rng.UniformInt(0, 5)]
                                    : rng.Uniform(-20.0, 20.0);
    }
    std::vector<double> ref_logs(n), logs(n);
    {
      simd::ScopedForceScalar forced(true);
      kernels::Log1pAbs(x.data(), n, ref_logs.data());
    }
    kernels::Log1pAbs(x.data(), n, logs.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(logs[i], ref_logs[i])) << "log1p_abs " << x[i];
      ASSERT_TRUE(BitEqual(logs[i], kernels::Log1pAbs(x[i])));
    }
    for (double lambda : kLambdas) {
      std::vector<double> reference(n), actual(n);
      {
        simd::ScopedForceScalar forced(true);
        kernels::YeoJohnson(x.data(), logs.data(), n, lambda,
                            reference.data());
      }
      kernels::YeoJohnson(x.data(), logs.data(), n, lambda, actual.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(BitEqual(actual[i], reference[i]))
            << "x " << x[i] << " lambda " << lambda;
        ASSERT_TRUE(BitEqual(
            reference[i], kernels::YeoJohnsonFromLog(x[i], logs[i], lambda)));
      }
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
