#include "util/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/aligned.h"
#include "util/random.h"

namespace autofp {
namespace {

using simd::VecD;

/// Bitwise equality — distinguishes +0.0 from -0.0 and compares NaN
/// payloads, which EXPECT_DOUBLE_EQ cannot.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<uint64_t>(a) << " vs "
         << std::bit_cast<uint64_t>(b) << ")";
}

/// A value mix that exercises the edge cases the kernels care about:
/// signed zeros, denormal-adjacent magnitudes, exact ties.
std::vector<double> InterestingValues(Rng& rng, size_t n) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 9)) {
      case 0: out[i] = 0.0; break;
      case 1: out[i] = -0.0; break;
      case 2: out[i] = rng.Uniform(-1e-300, 1e-300); break;
      case 3: out[i] = static_cast<double>(rng.UniformInt(-3, 3)); break;
      default: out[i] = rng.Uniform(-100.0, 100.0); break;
    }
  }
  return out;
}

TEST(Simd, BackendReportsConsistentLaneCount) {
  EXPECT_EQ(simd::kDoubleLanes, VecD::kLanes);
  if (simd::kEnabled) {
    EXPECT_GT(simd::kDoubleLanes, 1u);
  } else {
    EXPECT_EQ(simd::kDoubleLanes, 1u);
  }
}

TEST(Simd, ElementwiseOpsAreBitIdenticalToScalar) {
  Rng rng(42);
  const size_t lanes = VecD::kLanes;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> a = InterestingValues(rng, lanes);
    std::vector<double> b = InterestingValues(rng, lanes);
    const VecD va = VecD::Load(a.data());
    const VecD vb = VecD::Load(b.data());
    for (size_t i = 0; i < lanes; ++i) {
      EXPECT_TRUE(BitEqual((va + vb).Lane(i), a[i] + b[i]));
      EXPECT_TRUE(BitEqual((va - vb).Lane(i), a[i] - b[i]));
      EXPECT_TRUE(BitEqual((va * vb).Lane(i), a[i] * b[i]));
      EXPECT_TRUE(BitEqual((va / vb).Lane(i), a[i] / b[i]));
      EXPECT_TRUE(BitEqual(va.Abs().Lane(i), std::fabs(a[i])));
      EXPECT_TRUE(
          BitEqual(va.Abs().Sqrt().Lane(i), std::sqrt(std::fabs(a[i]))));
    }
  }
}

TEST(Simd, SelectOnStrictComparisonMatchesScalarTieBehavior) {
  // The fit reductions update running min/max with Select on a STRICT
  // comparison, which must keep the incumbent on ties — including the
  // -0.0 == +0.0 tie, where Min/Max intrinsics would pick an operand by
  // position instead. This is what keeps fitted parameters bit-identical
  // to the scalar `if (value < min)` updates.
  const double pz = 0.0;
  const double nz = -0.0;
  const VecD incumbent = VecD::Set1(nz);
  const VecD value = VecD::Set1(pz);
  // Scalar reference: value < incumbent is false (0 < 0), keep incumbent.
  const VecD kept =
      VecD::Select(VecD::Gt(incumbent, value), value, incumbent);
  for (size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_TRUE(BitEqual(kept.Lane(i), nz));
  }
  // And the mirror image for max.
  const VecD kept_max = VecD::Select(VecD::Gt(value, incumbent), value,
                                     incumbent);
  for (size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_TRUE(BitEqual(kept_max.Lane(i), nz));
  }
}

TEST(Simd, LeMatchesScalarOnNanSignedZerosAndTies) {
  // The MLP ReLU gate zeroes a gradient where Le(activation, 0) holds. A
  // NaN lane must compare false, so its gradient is kept, and -0.0 <= 0.0
  // must hold, exactly as scalar <= does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> pairs = {
      {nan, 0.0},    {0.0, nan},   {nan, nan},     {-nan, -1.0},
      {-0.0, 0.0},   {0.0, -0.0},  {-0.0, -0.0},   {1.5, 1.5},
      {-2.0, 3.0},   {3.0, -2.0},  {inf, inf},     {-inf, 0.0},
      {inf, 0.0},    {1e-310, 0.0}, {-1e-310, 0.0}, {0.0, 1e-310}};
  for (size_t start = 0; start < pairs.size(); ++start) {
    double a[VecD::kLanes];
    double b[VecD::kLanes];
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      std::tie(a[i], b[i]) = pairs[(start + i) % pairs.size()];
    }
    const VecD va = VecD::Load(a);
    const VecD le = VecD::Select(VecD::Le(va, VecD::Load(b)), VecD::Set1(1.0),
                                 VecD::Zero());
    // The gate itself: a NaN activation keeps the gradient's bits.
    const VecD grad = VecD::Set1(-0.25);
    const VecD gated = VecD::Select(VecD::Le(va, VecD::Zero()), VecD::Zero(),
                                    grad);
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      EXPECT_EQ(le.Lane(i), a[i] <= b[i] ? 1.0 : 0.0)
          << a[i] << " <= " << b[i];
      EXPECT_TRUE(BitEqual(gated.Lane(i), a[i] <= 0.0 ? 0.0 : -0.25))
          << "activation " << a[i];
    }
  }
}

TEST(Simd, UnalignedLoadsAndStoresWork) {
  // Matrix storage is 64-byte aligned but row pointers inside it are not
  // (odd column counts); every Load/Store must tolerate any offset.
  AlignedVector<double> buffer(VecD::kLanes * 4 + 8, 0.0);
  Rng rng(7);
  for (size_t offset = 0; offset < 8; ++offset) {
    std::vector<double> values = InterestingValues(rng, VecD::kLanes);
    std::copy(values.begin(), values.end(), buffer.begin() + offset);
    const VecD v = VecD::Load(buffer.data() + offset);
    double out[8 + 16] = {0};
    v.Store(out + offset);
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      EXPECT_TRUE(BitEqual(out[offset + i], values[i]));
    }
  }
}

TEST(Simd, UpperAndLowerBoundMatchStdAlgorithms) {
  Rng rng(123);
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 7u, 16u, 17u, 100u, 1000u}) {
    std::vector<double> table(n);
    for (double& x : table) x = std::round(rng.Uniform(-20.0, 20.0));
    std::sort(table.begin(), table.end());
    for (int trial = 0; trial < 200; ++trial) {
      // Half the probes are exact table entries so ties are exercised.
      const double value =
          (n > 0 && trial % 2 == 0)
              ? table[rng.UniformIndex(n)]
              : rng.Uniform(-25.0, 25.0);
      const size_t expected_upper = static_cast<size_t>(
          std::upper_bound(table.begin(), table.end(), value) -
          table.begin());
      const size_t expected_lower = static_cast<size_t>(
          std::lower_bound(table.begin(), table.end(), value) -
          table.begin());
      EXPECT_EQ(simd::UpperBoundIndex(table.data(), n, value),
                expected_upper)
          << "n=" << n << " value=" << value;
      EXPECT_EQ(simd::LowerBoundIndex(table.data(), n, value),
                expected_lower)
          << "n=" << n << " value=" << value;
    }
  }
}

TEST(Simd, DotIsWithinToleranceOfScalarAndExactWhenForced) {
  Rng rng(99);
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 16u, 17u, 64u, 1000u}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-1.0, 1.0);
      b[i] = rng.Uniform(-1.0, 1.0);
    }
    const double reference = simd::DotScalar(a.data(), b.data(), n);
    const double vectorized = simd::Dot(a.data(), b.data(), n);
    // Reassociated sum: tolerance-gated, never bit-compared.
    EXPECT_NEAR(vectorized, reference,
                1e-12 * (1.0 + static_cast<double>(n)));
    simd::ScopedForceScalar forced(true);
    EXPECT_TRUE(
        BitEqual(simd::Dot(a.data(), b.data(), n), reference));
  }
}

TEST(Simd, AxpyIsBitIdenticalToScalarLoop) {
  Rng rng(1234);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 64u,
                   1000u}) {
    std::vector<double> x = InterestingValues(rng, n);
    std::vector<double> y = InterestingValues(rng, n);
    const double alpha = rng.Uniform(-2.0, 2.0);
    std::vector<double> expected = y;
    for (size_t i = 0; i < n; ++i) expected[i] += alpha * x[i];
    std::vector<double> actual = y;
    simd::Axpy(alpha, x.data(), actual.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(actual[i], expected[i])) << "n=" << n;
    }
  }
}

TEST(Simd, FillWritesEveryElement) {
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 17u, 64u}) {
    std::vector<double> buffer(n + 1, -1.0);
    simd::Fill(buffer.data(), 2.5, n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(buffer[i], 2.5);
    EXPECT_EQ(buffer[n], -1.0);  // no overrun.
  }
}

TEST(Simd, ForceScalarFlagIsScopedAndRestored) {
  const bool initial = simd::ForceScalarEnabled();
  {
    simd::ScopedForceScalar outer(true);
    EXPECT_TRUE(simd::ForceScalarEnabled());
    {
      simd::ScopedForceScalar inner(false);
      EXPECT_FALSE(simd::ForceScalarEnabled());
    }
    EXPECT_TRUE(simd::ForceScalarEnabled());
  }
  EXPECT_EQ(simd::ForceScalarEnabled(), initial);
}

}  // namespace
}  // namespace autofp
