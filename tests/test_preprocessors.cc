#include "preprocess/preprocessor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "preprocess/kernels.h"
#include "preprocess/power_transformer.h"
#include "preprocess/quantile_transformer.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace autofp {
namespace {

/// The worked example of the paper's Figure 1: a single feature column
/// [-1.5, 1, 1.5, 2.5, 3, 4, 5].
Matrix Figure1Column() {
  return Matrix{{-1.5}, {1.0}, {1.5}, {2.5}, {3.0}, {4.0}, {5.0}};
}

TEST(StandardScaler, MatchesFigure1) {
  auto scaler = MakePreprocessor(PreprocessorKind::kStandardScaler);
  Matrix out = scaler->FitTransform(Figure1Column());
  // Paper: mu = 2.21, sigma = 1.98; -1.5 -> -1.87.
  EXPECT_NEAR(out(0, 0), -1.87, 0.01);
  EXPECT_NEAR(out(1, 0), -0.61, 0.01);
  EXPECT_NEAR(out(6, 0), 1.41, 0.01);
  // Standardized output: zero mean, unit variance.
  std::vector<double> column = out.Column(0);
  EXPECT_NEAR(Mean(column), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(column), 1.0, 1e-12);
}

TEST(StandardScaler, ConstantColumnCenteredOnly) {
  auto scaler = MakePreprocessor(PreprocessorKind::kStandardScaler);
  Matrix constant = {{3.0}, {3.0}, {3.0}};
  Matrix out = scaler->FitTransform(constant);
  for (size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(out(r, 0), 0.0);
}

TEST(StandardScaler, WithMeanFalseOnlyScales) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kStandardScaler);
  config.with_mean = false;
  auto scaler = MakePreprocessor(config);
  Matrix out = scaler->FitTransform(Figure1Column());
  // Same scale as the centered version but shifted by mu/sigma.
  EXPECT_NEAR(out(0, 0), -1.5 / 1.9794, 0.001);
}

TEST(StandardScaler, TransformUsesTrainStatistics) {
  auto scaler = MakePreprocessor(PreprocessorKind::kStandardScaler);
  scaler->Fit(Figure1Column());
  Matrix other = {{2.2142857142857144}};
  Matrix out = scaler->Transform(other);
  EXPECT_NEAR(out(0, 0), 0.0, 1e-9);  // train mean maps to 0.
}

TEST(MaxAbsScaler, MatchesFigure1) {
  auto scaler = MakePreprocessor(PreprocessorKind::kMaxAbsScaler);
  Matrix out = scaler->FitTransform(Figure1Column());
  EXPECT_DOUBLE_EQ(out(0, 0), -0.3);
  EXPECT_DOUBLE_EQ(out(1, 0), 0.2);
  EXPECT_DOUBLE_EQ(out(2, 0), 0.3);
  EXPECT_DOUBLE_EQ(out(6, 0), 1.0);
}

TEST(MaxAbsScaler, ZeroColumnUnchanged) {
  auto scaler = MakePreprocessor(PreprocessorKind::kMaxAbsScaler);
  Matrix zeros(4, 1, 0.0);
  Matrix out = scaler->FitTransform(zeros);
  for (size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(out(r, 0), 0.0);
}

TEST(MinMaxScaler, MatchesFigure1) {
  auto scaler = MakePreprocessor(PreprocessorKind::kMinMaxScaler);
  Matrix out = scaler->FitTransform(Figure1Column());
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_NEAR(out(1, 0), 2.5 / 6.5, 1e-9);
  EXPECT_NEAR(out(2, 0), 3.0 / 6.5, 1e-9);
  EXPECT_NEAR(out(3, 0), 4.0 / 6.5, 1e-9);
  EXPECT_DOUBLE_EQ(out(6, 0), 1.0);
}

TEST(MinMaxScaler, ConstantColumnMapsToZero) {
  auto scaler = MakePreprocessor(PreprocessorKind::kMinMaxScaler);
  Matrix constant = {{5.0}, {5.0}};
  Matrix out = scaler->FitTransform(constant);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
}

TEST(Normalizer, MatchesFigure1SingleColumn) {
  auto normalizer = MakePreprocessor(PreprocessorKind::kNormalizer);
  Matrix out = normalizer->FitTransform(Figure1Column());
  EXPECT_DOUBLE_EQ(out(0, 0), -1.0);
  for (size_t r = 1; r < 7; ++r) EXPECT_DOUBLE_EQ(out(r, 0), 1.0);
}

TEST(Normalizer, L2RowsHaveUnitNorm) {
  auto normalizer = MakePreprocessor(PreprocessorKind::kNormalizer);
  Matrix data = {{3.0, 4.0}, {1.0, 1.0}, {-2.0, 0.0}};
  Matrix out = normalizer->FitTransform(data);
  for (size_t r = 0; r < 3; ++r) {
    double norm = std::hypot(out(r, 0), out(r, 1));
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(out(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.8);
}

TEST(Normalizer, L1AndMaxNorms) {
  PreprocessorConfig l1 =
      PreprocessorConfig::Defaults(PreprocessorKind::kNormalizer);
  l1.norm = NormKind::kL1;
  Matrix data = {{2.0, -2.0}};
  Matrix out = MakePreprocessor(l1)->FitTransform(data);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(out(0, 1), -0.5);

  PreprocessorConfig max_norm = l1;
  max_norm.norm = NormKind::kMax;
  Matrix out_max = MakePreprocessor(max_norm)->FitTransform({{2.0, -4.0}});
  EXPECT_DOUBLE_EQ(out_max(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(out_max(0, 1), -1.0);
}

TEST(Normalizer, ZeroRowUnchanged) {
  auto normalizer = MakePreprocessor(PreprocessorKind::kNormalizer);
  Matrix out = normalizer->FitTransform({{0.0, 0.0}});
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
}

TEST(Binarizer, MatchesFigure1) {
  auto binarizer = MakePreprocessor(PreprocessorKind::kBinarizer);
  Matrix out = binarizer->FitTransform(Figure1Column());
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  for (size_t r = 1; r < 7; ++r) EXPECT_DOUBLE_EQ(out(r, 0), 1.0);
}

TEST(Binarizer, CustomThreshold) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kBinarizer);
  config.threshold = 2.5;
  Matrix out = MakePreprocessor(config)->FitTransform(Figure1Column());
  // 2.5 itself maps to 0 (scikit-learn: strictly greater).
  EXPECT_DOUBLE_EQ(out(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(4, 0), 1.0);
}

TEST(QuantileTransformer, MatchesFigure1) {
  auto transformer = MakePreprocessor(PreprocessorKind::kQuantileTransformer);
  Matrix out = transformer->FitTransform(Figure1Column());
  // 7 training rows cap n_quantiles at 7: value i maps to i/6.
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(out(i, 0), i / 6.0, 1e-9);
  }
}

TEST(QuantileTransformer, ClipsOutOfRange) {
  auto transformer = MakePreprocessor(PreprocessorKind::kQuantileTransformer);
  transformer->Fit(Figure1Column());
  Matrix out = transformer->Transform({{-100.0}, {100.0}, {2.75}});
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 1.0);
  EXPECT_GT(out(2, 0), 0.5);
  EXPECT_LT(out(2, 0), 0.67);
}

TEST(QuantileTransformer, NormalOutputIsCenteredAndBounded) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer);
  config.output_distribution = OutputDistribution::kNormal;
  Rng rng(3);
  Matrix data(500, 1);
  for (size_t r = 0; r < 500; ++r) data(r, 0) = std::exp(rng.Gaussian());
  Matrix out = MakePreprocessor(config)->FitTransform(data);
  std::vector<double> column = out.Column(0);
  EXPECT_NEAR(Mean(column), 0.0, 0.1);
  EXPECT_NEAR(StdDev(column), 1.0, 0.15);
  EXPECT_LT(std::abs(Skewness(column)), 0.2);
  for (double v : column) EXPECT_LT(std::abs(v), 6.0);
}

TEST(QuantileTransformer, MonotonicOnTrainData) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer);
  config.n_quantiles = 10;
  Rng rng(4);
  Matrix data(200, 1);
  for (size_t r = 0; r < 200; ++r) data(r, 0) = rng.Gaussian(0.0, 5.0);
  auto transformer = MakePreprocessor(config);
  Matrix out = transformer->FitTransform(data);
  for (size_t a = 0; a < 200; ++a) {
    for (size_t b = a + 1; b < 200; ++b) {
      if (data(a, 0) < data(b, 0)) {
        EXPECT_LE(out(a, 0), out(b, 0));
      }
    }
  }
}

TEST(PowerTransformer, Figure1LambdaNearPaper) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kPowerTransformer);
  config.standardize = false;
  PowerTransformer transformer(config);
  transformer.Fit(Figure1Column());
  // Paper reports lambda = 1.22 for this column (scipy MLE).
  EXPECT_NEAR(transformer.lambdas()[0], 1.22, 0.15);
}

TEST(PowerTransformer, YeoJohnsonBranches) {
  // x >= 0, lambda = 0: log1p.
  EXPECT_NEAR(PowerTransformer::YeoJohnson(1.0, 0.0), std::log(2.0), 1e-12);
  // x >= 0, lambda = 2: ((x+1)^2 - 1)/2.
  EXPECT_NEAR(PowerTransformer::YeoJohnson(1.0, 2.0), 1.5, 1e-12);
  // x < 0, lambda = 2: -log(1-x).
  EXPECT_NEAR(PowerTransformer::YeoJohnson(-1.0, 2.0), -std::log(2.0), 1e-12);
  // x < 0, lambda = 0: -((1-x)^2 - 1)/2.
  EXPECT_NEAR(PowerTransformer::YeoJohnson(-1.0, 0.0), -1.5, 1e-12);
  // Identity at lambda = 1 for x >= 0.
  EXPECT_NEAR(PowerTransformer::YeoJohnson(3.0, 1.0), 3.0, 1e-12);
}

TEST(PowerTransformer, YeoJohnsonIsMonotone) {
  for (double lambda : {-2.0, 0.0, 0.5, 1.0, 2.0, 3.0}) {
    double previous = PowerTransformer::YeoJohnson(-5.0, lambda);
    for (double x = -4.5; x <= 5.0; x += 0.5) {
      double value = PowerTransformer::YeoJohnson(x, lambda);
      EXPECT_GT(value, previous) << "lambda=" << lambda << " x=" << x;
      previous = value;
    }
  }
}

TEST(PowerTransformer, ReducesSkewOfLogNormal) {
  Rng rng(5);
  Matrix data(400, 1);
  for (size_t r = 0; r < 400; ++r) data(r, 0) = std::exp(rng.Gaussian());
  double raw_skew = Skewness(data.Column(0));
  auto transformer = MakePreprocessor(PreprocessorKind::kPowerTransformer);
  Matrix out = transformer->FitTransform(data);
  double transformed_skew = Skewness(out.Column(0));
  EXPECT_GT(raw_skew, 2.0);
  EXPECT_LT(std::abs(transformed_skew), 0.5);
}

TEST(PowerTransformer, StandardizedOutput) {
  Rng rng(6);
  Matrix data(300, 2);
  for (size_t r = 0; r < 300; ++r) {
    data(r, 0) = std::exp(rng.Gaussian());
    data(r, 1) = rng.Gaussian(5.0, 2.0);
  }
  auto transformer = MakePreprocessor(PreprocessorKind::kPowerTransformer);
  Matrix out = transformer->FitTransform(data);
  for (size_t c = 0; c < 2; ++c) {
    std::vector<double> column = out.Column(c);
    EXPECT_NEAR(Mean(column), 0.0, 1e-9);
    EXPECT_NEAR(StdDev(column), 1.0, 1e-9);
  }
}

TEST(PowerTransformer, ConstantColumnSafe) {
  auto transformer = MakePreprocessor(PreprocessorKind::kPowerTransformer);
  Matrix constant = {{2.0}, {2.0}, {2.0}};
  Matrix out = transformer->FitTransform(constant);
  for (size_t r = 0; r < 3; ++r) EXPECT_TRUE(std::isfinite(out(r, 0)));
}

// --- Generic properties over all preprocessors -----------------------------

class AllPreprocessors : public ::testing::TestWithParam<PreprocessorKind> {};

TEST_P(AllPreprocessors, PreservesShape) {
  auto preprocessor = MakePreprocessor(GetParam());
  Rng rng(7);
  Matrix data(40, 5);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t c = 0; c < 5; ++c) data(r, c) = rng.Gaussian(0, 3);
  }
  Matrix out = preprocessor->FitTransform(data);
  EXPECT_EQ(out.rows(), data.rows());
  EXPECT_EQ(out.cols(), data.cols());
}

TEST_P(AllPreprocessors, OutputsAreFinite) {
  auto preprocessor = MakePreprocessor(GetParam());
  Rng rng(8);
  Matrix data(60, 3);
  for (size_t r = 0; r < 60; ++r) {
    data(r, 0) = rng.Gaussian() * 1e6;          // huge scale.
    data(r, 1) = rng.Gaussian() * 1e-8;         // tiny scale.
    data(r, 2) = std::exp(rng.Gaussian() * 3);  // extreme skew.
  }
  Matrix out = preprocessor->FitTransform(data);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(out(r, c)))
          << KindName(GetParam()) << " at (" << r << "," << c << ")";
    }
  }
}

TEST_P(AllPreprocessors, DeterministicTransform) {
  auto a = MakePreprocessor(GetParam());
  auto b = MakePreprocessor(GetParam());
  Rng rng(9);
  Matrix data(30, 4);
  for (size_t r = 0; r < 30; ++r) {
    for (size_t c = 0; c < 4; ++c) data(r, c) = rng.Gaussian();
  }
  EXPECT_TRUE(a->FitTransform(data) == b->FitTransform(data));
}

TEST_P(AllPreprocessors, CloneIsUnfittedSameConfig) {
  auto preprocessor = MakePreprocessor(GetParam());
  auto clone = preprocessor->Clone();
  EXPECT_TRUE(clone->config() == preprocessor->config());
}

TEST_P(AllPreprocessors, HandlesSingleRow) {
  auto preprocessor = MakePreprocessor(GetParam());
  Matrix single = {{1.5, -2.0, 0.0}};
  Matrix out = preprocessor->FitTransform(single);
  EXPECT_EQ(out.rows(), 1u);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(std::isfinite(out(0, c)));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllPreprocessors,
    ::testing::ValuesIn(AllPreprocessorKinds()),
    [](const ::testing::TestParamInfo<PreprocessorKind>& info) {
      return KindName(info.param);
    });

TEST(PreprocessorConfig, ToStringShowsNonDefaults) {
  PreprocessorConfig config =
      PreprocessorConfig::Defaults(PreprocessorKind::kBinarizer);
  EXPECT_EQ(config.ToString(), "Binarizer");
  config.threshold = 0.4;
  EXPECT_EQ(config.ToString(), "Binarizer(threshold=0.4)");
}

TEST(PreprocessorConfig, EqualityIgnoresIrrelevantFields) {
  PreprocessorConfig a =
      PreprocessorConfig::Defaults(PreprocessorKind::kMaxAbsScaler);
  PreprocessorConfig b = a;
  b.threshold = 0.9;  // irrelevant for MaxAbsScaler.
  EXPECT_TRUE(a == b);
  PreprocessorConfig c =
      PreprocessorConfig::Defaults(PreprocessorKind::kBinarizer);
  PreprocessorConfig d = c;
  d.threshold = 0.9;
  EXPECT_FALSE(c == d);
}

// ---------------------------------------------------------------------------
// Fit exactness: the fitted state of Power and Quantile is pinned byte for
// byte, and a fit whose columns are spread over idle pool workers
// (ThreadPool::HelpFor) writes the same bytes as a plain one.

/// A seeded matrix that reaches every branch of both fits: negatives,
/// zeros and -0.0, +-1e300 (Power's ClampFinite path), skew both ways and
/// one constant column.
Matrix FitEdgeMatrix() {
  constexpr size_t kRows = 200;
  const double kSmall[] = {-2.0, -1.0, -0.0, 0.0, 1.0, 3.0};
  Rng rng(2310);
  Matrix data(kRows, 6);
  for (size_t r = 0; r < kRows; ++r) {
    data(r, 0) = rng.Gaussian(0.0, 3.0);
    data(r, 1) = std::exp(rng.Gaussian(0.0, 1.0));
    data(r, 2) = kSmall[rng.UniformInt(0, 5)];
    data(r, 3) = 2.5;
    data(r, 4) = r % 50 == 3    ? 1e300
                 : r % 50 == 17 ? -1e300
                                : rng.Gaussian(1.0, 2.0);
    data(r, 5) = -std::exp(rng.Gaussian(0.0, 1.5));
  }
  return data;
}

std::string FittedState(const PreprocessorConfig& config, const Matrix& data) {
  auto step = MakePreprocessor(config);
  step->Fit(data);
  std::ostringstream out;
  step->SaveState(out);
  return out.str();
}

struct PinnedFit {
  const char* name;
  PreprocessorConfig config;
  size_t bytes;
  uint64_t fnv1a;  ///< Fnv1a64 of the SaveState bytes.
};

std::vector<PinnedFit> PinnedFits() {
  PreprocessorConfig power =
      PreprocessorConfig::Defaults(PreprocessorKind::kPowerTransformer);
  PreprocessorConfig power_raw = power;
  power_raw.standardize = false;
  PreprocessorConfig uniform =
      PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer);
  PreprocessorConfig normal = uniform;
  normal.output_distribution = OutputDistribution::kNormal;
  // Recorded from the fits as they were before the log1p cache and
  // HelpFor: both must leave every byte where it was. Quantile's state is
  // its reference table, which does not depend on the output distribution;
  // the radix sort that replaced std::sort left it where it was.
  // power_standardize was re-recorded once, when log1p/expm1 moved from
  // libm to util/simd_math.h: its means and stddevs moved in low bits.
  // The lambdas did not move, so power_raw kept its pin.
  return {{"power_standardize", power, 168, 0xbd6d5f3427caffd2ull},
          {"power_raw", power_raw, 168, 0x5835322829f754f5ull},
          {"quantile_uniform", uniform, 9660, 0x68af0cf20dbdcb2cull},
          {"quantile_normal", normal, 9660, 0x68af0cf20dbdcb2cull}};
}

TEST(FitInPool, StateBytesArePinned) {
  const Matrix data = FitEdgeMatrix();
  for (const PinnedFit& pinned : PinnedFits()) {
    const std::string state = FittedState(pinned.config, data);
    EXPECT_EQ(state.size(), pinned.bytes) << pinned.name;
    EXPECT_EQ(Fnv1a64(state.data(), state.size()), pinned.fnv1a)
        << pinned.name << std::hex << " got 0x"
        << Fnv1a64(state.data(), state.size());
  }
}

TEST(FitInPool, HelpedFitsWriteThePlainFitsBytes) {
  const Matrix data = FitEdgeMatrix();
  ThreadPool pool(4);
  for (const PinnedFit& pinned : PinnedFits()) {
    const std::string plain = FittedState(pinned.config, data);
    // One fit with three idle workers to help it, then four at once, each
    // competing for helpers with the others.
    for (size_t fits : {size_t{1}, size_t{4}}) {
      std::vector<std::string> states(fits);
      pool.ParallelFor(fits, [&](size_t i, int) {
        states[i] = FittedState(pinned.config, data);
      });
      for (size_t i = 0; i < fits; ++i) {
        EXPECT_TRUE(states[i] == plain)
            << pinned.name << ", " << fits << " fits, fit " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transform exactness: Power and Quantile transform row blocks through
// ThreadPool::HelpFor, and a transform, plain or with idle pool workers
// taking its blocks, writes the bytes of one row at a time.

/// `rows` rows in FitEdgeMatrix's six columns, with +-1e300 in column 4,
/// NaN in column 5 and the constant 2.5 in column 3.
Matrix TransformEdgeMatrix(size_t rows) {
  const double kSmall[] = {-2.0, -1.0, -0.0, 0.0, 1.0, 3.0};
  Rng rng(4077 + rows);
  Matrix data(rows, 6);
  for (size_t r = 0; r < rows; ++r) {
    data(r, 0) = rng.Gaussian(0.0, 3.0);
    data(r, 1) = std::exp(rng.Gaussian(0.0, 1.0));
    data(r, 2) = kSmall[rng.UniformInt(0, 5)];
    data(r, 3) = 2.5;
    data(r, 4) = r % 7 == 3   ? 1e300
                 : r % 7 == 5 ? -1e300
                              : rng.Gaussian(1.0, 2.0);
    data(r, 5) = r % 11 == 4 ? std::numeric_limits<double>::quiet_NaN()
                             : -std::exp(rng.Gaussian(0.0, 1.5));
  }
  return data;
}

TEST(TransformInPool, HelpedTransformsWriteThePlainBytes) {
  const Matrix fit_data = FitEdgeMatrix();
  constexpr size_t kBlock = kernels::kTransformBlockRows;
  ThreadPool pool(4);
  for (const PinnedFit& pinned : PinnedFits()) {
    auto step = MakePreprocessor(pinned.config);
    step->Fit(fit_data);
    for (size_t rows : {kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 7}) {
      const Matrix input = TransformEdgeMatrix(rows);
      const auto transformed = [&] {
        Matrix data = input;
        step->TransformInPlace(data);
        return data;
      };
      // The reference transforms one row at a time, each a block of its
      // own, so it cannot share a fault in how the rows are split.
      Matrix reference = input;
      for (size_t r = 0; r < rows; ++r) {
        Matrix row = input.SelectRows({r});
        step->TransformInPlace(row);
        std::memcpy(reference.RowPtr(r), row.RowPtr(0),
                    input.cols() * sizeof(double));
      }
      const size_t bytes = reference.size() * sizeof(double);
      for (bool scalar : {false, true}) {
        simd::ScopedForceScalar force(scalar);
        const std::string where = std::string(pinned.name) + ", " +
                                  std::to_string(rows) + " rows" +
                                  (scalar ? ", forced scalar" : "");
        const Matrix alone = transformed();
        EXPECT_EQ(std::memcmp(alone.Raw(), reference.Raw(), bytes), 0)
            << where << ", plain";
        // Alone in the pool with three idle workers to take blocks, then
        // four at once, each competing for helpers with the others.
        for (size_t transforms : {size_t{1}, size_t{4}}) {
          std::vector<Matrix> outputs(transforms);
          pool.ParallelFor(transforms, [&](size_t i, int) {
            outputs[i] = transformed();
          });
          for (size_t i = 0; i < transforms; ++i) {
            EXPECT_EQ(std::memcmp(outputs[i].Raw(), reference.Raw(), bytes),
                      0)
                << where << ", " << transforms << " in a pool, transform "
                << i;
          }
        }
      }
    }
  }
}

TEST(QuantileTransformer, ColumnSpanningTheDoubleRangeIsFiniteAndRepeatable) {
  // b - a overflows between -1e308 and +1e308, so interpolating across
  // them used to put NaN in the reference table, and the transform then
  // read before the table's start.
  Matrix data(64, 1);
  for (size_t r = 0; r < data.rows(); ++r) {
    data(r, 0) = r % 2 == 0 ? -1e308 : 1e308;
  }
  PreprocessorConfig uniform =
      PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer);
  PreprocessorConfig normal = uniform;
  normal.output_distribution = OutputDistribution::kNormal;
  for (const PreprocessorConfig& config : {uniform, normal}) {
    Matrix first = MakePreprocessor(config)->FitTransform(data);
    Matrix second = MakePreprocessor(config)->FitTransform(data);
    for (size_t r = 0; r < data.rows(); ++r) {
      ASSERT_TRUE(std::isfinite(first(r, 0))) << "row " << r;
      EXPECT_EQ(std::bit_cast<uint64_t>(first(r, 0)),
                std::bit_cast<uint64_t>(second(r, 0)))
          << "row " << r;
      EXPECT_EQ(first(r, 0), first(r % 2, 0)) << "row " << r;
    }
    EXPECT_LT(first(0, 0), first(1, 0));
    // The table is finite and ordered, so it loads back.
    std::istringstream state(FittedState(config, data));
    EXPECT_TRUE(MakePreprocessor(config)->LoadState(state).ok());
  }
}

/// Power's lambda search as it was when log1p and expm1 came from libm:
/// the same likelihood and golden section, on glibc's functions.
double LibmFitLambda(const std::vector<double>& column) {
  const size_t rows = column.size();
  std::vector<double> logs(rows);
  double jacobian = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    logs[i] = std::log1p(column[i] >= 0.0 ? column[i] : -column[i]);
    jacobian += std::copysign(logs[i], column[i]);
  }
  auto clamp_finite = [](double value) {
    return std::isnan(value) ? 0.0 : std::clamp(value, -1e100, 1e100);
  };
  auto yeo_johnson = [&](size_t i, double lambda) {
    if (column[i] >= 0.0) {
      if (std::abs(lambda) < 1e-8) return logs[i];
      return clamp_finite(std::expm1(lambda * logs[i]) / lambda);
    }
    const double two_minus = 2.0 - lambda;
    if (std::abs(two_minus) < 1e-8) return -logs[i];
    return clamp_finite(-std::expm1(two_minus * logs[i]) / two_minus);
  };
  auto log_likelihood = [&](double lambda) {
    const double n = static_cast<double>(rows);
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      const double t = yeo_johnson(i, lambda);
      sum += t;
      sum_sq += t * t;
    }
    const double variance = sum_sq / n - (sum / n) * (sum / n);
    if (!(variance > 0.0) || !std::isfinite(variance)) {
      return -std::numeric_limits<double>::infinity();
    }
    return -0.5 * n * std::log(variance) + (lambda - 1.0) * jacobian;
  };
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = -4.0, b = 6.0;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = log_likelihood(x1), f2 = log_likelihood(x2);
  for (int i = 0; i < 30; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = log_likelihood(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = log_likelihood(x1);
    }
  }
  return (a + b) / 2.0;
}

TEST(PowerTransformer, LambdaMatchesLibmFit) {
  // The fit's transcendentals moved from libm to util/simd_math.h. Golden
  // section keeps its 30 iterations, so lambda may move only by their
  // rounding flipping a late comparison.
  Result<Dataset> electricity = GetSuiteDataset("electricity_syn");
  ASSERT_TRUE(electricity.ok()) << electricity.status().ToString();
  for (const Matrix& data : {FitEdgeMatrix(), electricity.value().features}) {
    PowerTransformer transformer(
        PreprocessorConfig::Defaults(PreprocessorKind::kPowerTransformer));
    transformer.Fit(data);
    for (size_t c = 0; c < data.cols(); ++c) {
      const std::vector<double> column = data.Column(c);
      if (!(Variance(column) > 0.0)) continue;  // constant: lambda stays 1
      const double expected = LibmFitLambda(column);
      EXPECT_LE(std::abs(transformer.lambdas()[c] - expected),
                1e-9 * std::max(1.0, std::abs(expected)))
          << "rows " << data.rows() << ", column " << c;
    }
  }
}

}  // namespace
}  // namespace autofp
