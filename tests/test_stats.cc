#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace autofp {
namespace {

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, VarianceIsPopulation) {
  // Population variance of {1,2,3} = 2/3.
  EXPECT_NEAR(Variance({1.0, 2.0, 3.0}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
}

TEST(Stats, StdDevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(StdDev({4.0, 4.0, 4.0}), 0.0);
}

TEST(Stats, SkewnessSymmetricIsZero) {
  EXPECT_NEAR(Skewness({-2.0, -1.0, 0.0, 1.0, 2.0}), 0.0, 1e-12);
}

TEST(Stats, SkewnessRightSkewedIsPositive) {
  EXPECT_GT(Skewness({1.0, 1.0, 1.0, 1.0, 10.0}), 1.0);
}

TEST(Stats, SkewnessConstantIsZero) {
  EXPECT_DOUBLE_EQ(Skewness({3.0, 3.0, 3.0}), 0.0);
}

TEST(Stats, KurtosisUniformLikeIsNegative) {
  // A two-point distribution has excess kurtosis -2 (minimum possible).
  EXPECT_NEAR(Kurtosis({-1.0, 1.0, -1.0, 1.0}), -2.0, 1e-12);
}

TEST(Stats, KurtosisHeavyTailIsPositive) {
  std::vector<double> values(100, 0.0);
  values[0] = 50.0;
  values[1] = -50.0;
  EXPECT_GT(Kurtosis(values), 3.0);
}

TEST(Stats, QuantileMatchesNumpyLinear) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0 / 3.0), 2.0);
}

TEST(Stats, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(Stats, QuantileSingleValue) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.3), 7.0);
}

TEST(Stats, EntropyUniformIsLogK) {
  EXPECT_NEAR(Entropy({1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
}

TEST(Stats, EntropyDegenerateIsZero) {
  EXPECT_DOUBLE_EQ(Entropy({5.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0.0, 0.0}), 0.0);
}

TEST(Stats, PearsonCorrelationExtremes) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y_pos = {2.0, 4.0, 6.0, 8.0};
  std::vector<double> y_neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(PearsonCorrelation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, y_neg), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1.0, 1.0, 1.0, 1.0}), 0.0);
}

TEST(Stats, NormalInverseCdfRoundTrips) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    double x = NormalInverseCdf(p);
    EXPECT_NEAR(NormalCdf(x), p, 1e-8) << "p=" << p;
  }
}

TEST(Stats, NormalInverseCdfKnownValues) {
  EXPECT_NEAR(NormalInverseCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalInverseCdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalInverseCdf(0.025), -1.959964, 1e-5);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, SortedAndUnsortedAgree) {
  std::vector<double> sorted = {-3.0, -1.0, 0.0, 2.0, 2.0, 5.0, 9.0};
  std::vector<double> shuffled = {9.0, 0.0, 2.0, -3.0, 5.0, -1.0, 2.0};
  double q = GetParam();
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, q), Quantile(shuffled, q));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.66, 0.9,
                                           1.0));

TEST(Stats, RadixSortMatchesStdSort) {
  // Ties, signed zeros, denormals, infinities and magnitudes that share
  // every high digit (so passes are skipped), at sizes around the edges.
  const double inf = std::numeric_limits<double>::infinity();
  const double kSpecial[] = {0.0,  -0.0, 5e-324, -5e-324, inf,
                             -inf, 1e300, -1e300, 1.0,    -1.0};
  Rng rng(31);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{17},
                   size_t{2048}, size_t{5000}}) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<double> values(n);
      for (double& v : values) {
        switch (kind) {
          case 0: v = rng.Gaussian(0.0, 10.0); break;
          case 1: v = rng.Uniform(1.0, 1.0 + 1e-9); break;
          default:
            v = rng.UniformInt(0, 2) == 0 ? kSpecial[rng.UniformInt(0, 9)]
                                          : std::round(rng.Uniform(-3, 3));
        }
      }
      std::vector<double> expected = values;
      std::sort(expected.begin(), expected.end());
      RadixSort(&values);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(values[i], expected[i]) << "n " << n << " at " << i;
        // Equal keys are equal bits, so -0.0 comes before every +0.0.
        if (i > 0 && values[i] == 0.0) {
          EXPECT_FALSE(!std::signbit(values[i - 1]) &&
                       std::signbit(values[i]))
              << "+0.0 before -0.0 at " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace autofp
