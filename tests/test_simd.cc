#include "util/simd.h"
#include "util/simd_math.h"

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

TEST(Simd, SumEachLaneIsThatVectorsSum) {
  Rng rng(2024);
  // Quiet NaNs with distinct payloads and signs. An add of two NaNs
  // returns one of them, and which one follows the operand order the
  // compiler picks for a commutative add, in Sum() as anywhere; so a NaN
  // sum is compared as NaN, every other sum bit for bit.
  const auto nan = [](uint64_t payload, bool negative) {
    return std::bit_cast<double>((negative ? 0xFFF8000000000000ull
                                           : 0x7FF8000000000000ull) |
                                 payload);
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> values =
        InterestingValues(rng, VecD::kLanes * VecD::kLanes);
    for (double& v : values) {
      switch (rng.UniformInt(0, 11)) {
        case 0: v = inf; break;
        case 1: v = -inf; break;
        case 2: v = nan(static_cast<uint64_t>(rng.UniformInt(1, 1000)),
                        rng.UniformInt(0, 1) == 1); break;
        case 3: v = std::numeric_limits<double>::denorm_min() *
                    rng.UniformInt(-5, 5); break;
        default: break;
      }
    }
    VecD acc[VecD::kLanes];
    for (size_t r = 0; r < VecD::kLanes; ++r) {
      acc[r] = VecD::Load(values.data() + r * VecD::kLanes);
    }
    const VecD sums = VecD::SumEach(acc);
    for (size_t r = 0; r < VecD::kLanes; ++r) {
      const double expected = acc[r].Sum();
      if (std::isnan(expected)) {
        EXPECT_TRUE(std::isnan(sums.Lane(r))) << "trial " << trial;
      } else {
        EXPECT_TRUE(BitEqual(sums.Lane(r), expected))
            << "trial " << trial << ", lane " << r;
      }
    }
    const simd::ScalarD one = simd::ScalarD::Load(values.data());
    EXPECT_TRUE(BitEqual(simd::ScalarD::SumEach(&one).v, one.Sum()));
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

TEST(Simd, BitOpsMatchTheirScalarTwins) {
  // Round, Pow2, Exponent, Mantissa and unary minus on every lane against
  // the 1-lane ScalarD, and ScalarD against the standard library.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> rounds = {0.5, 1.5, 2.5,  -0.5,   -2.5, 0.49999,
                                      -0.0, 0.0, 1e300, -7.25, nan, 1023.5};
  const std::vector<double> positives = {1.0,    0.75,   1.4142, 3.0e-300,
                                         2.3e-308, 1.797e308, 12345.678, 0.1};
  for (size_t start = 0; start < rounds.size(); ++start) {
    double a[VecD::kLanes];
    double k[VecD::kLanes];
    double p[VecD::kLanes];
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      a[i] = rounds[(start + i) % rounds.size()];
      k[i] = static_cast<double>(
          -1022 + static_cast<int>((start * 173 + i * 97) % 2046));
      p[i] = positives[(start + i) % positives.size()];
    }
    const VecD va = VecD::Load(a);
    const VecD vk = VecD::Load(k);
    const VecD vp = VecD::Load(p);
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      const simd::ScalarD sa{a[i]};
      EXPECT_TRUE(BitEqual(va.Round().Lane(i), sa.Round().v));
      EXPECT_TRUE(BitEqual(sa.Round().v, std::nearbyint(a[i])));
      EXPECT_TRUE(BitEqual((-va).Lane(i), (-sa).v));
      EXPECT_TRUE(BitEqual((-sa).v, -a[i]));
      const simd::ScalarD sk{k[i]};
      EXPECT_TRUE(BitEqual(VecD::Pow2(vk).Lane(i), simd::ScalarD::Pow2(sk).v));
      EXPECT_EQ(simd::ScalarD::Pow2(sk).v,
                std::ldexp(1.0, static_cast<int>(k[i])));
      const simd::ScalarD sp{p[i]};
      EXPECT_TRUE(BitEqual(vp.Exponent().Lane(i), sp.Exponent().v));
      EXPECT_TRUE(BitEqual(vp.Mantissa().Lane(i), sp.Mantissa().v));
      int exponent = 0;
      const double fraction = std::frexp(p[i], &exponent);
      EXPECT_EQ(sp.Exponent().v, exponent - 1);
      EXPECT_EQ(sp.Mantissa().v, 2.0 * fraction);
    }
  }
}

// ---------------------------------------------------------------------------
// Transcendentals (util/simd_math.h).

/// |got - exact| in ulps of the exact value rounded to double.
double UlpError(double got, long double exact) {
  const double rounded = static_cast<double>(exact);
  if (std::isinf(rounded) || rounded == 0.0) {
    return got == rounded ? 0.0 : std::numeric_limits<double>::infinity();
  }
  int exponent = 0;
  std::frexp(rounded, &exponent);
  const long double ulp =
      std::ldexp(1.0L, std::max(exponent - 53, -1074));
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - exact) / ulp);
}

/// Arguments over both functions' domains: log-uniform magnitudes of both
/// signs from 2^-60 to 2^1023, uniform draws over each reduction interval
/// and its neighbours, and uniform draws up to the overflow edge.
std::vector<double> TranscendentalArguments(Rng& rng, size_t n) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: {
        const double magnitude =
            std::ldexp(rng.Uniform(1.0, 2.0), rng.UniformInt(-60, 1022));
        out[i] = rng.UniformInt(0, 1) == 0 ? magnitude : -magnitude;
        break;
      }
      case 1: out[i] = rng.Uniform(-1.5, 1.5); break;
      case 2: out[i] = rng.Uniform(-3.0, 3.0); break;
      default: out[i] = rng.Uniform(-745.0, 710.0); break;
    }
  }
  return out;
}

TEST(SimdMath, Expm1AndLog1pWithinTwoUlpOfLongDouble) {
  Rng rng(2024);
  double worst_expm1 = 0.0;
  double worst_log1p = 0.0;
  for (double x : TranscendentalArguments(rng, 200000)) {
    const double e = UlpError(simd::Expm1(x),
                              std::expm1(static_cast<long double>(x)));
    worst_expm1 = std::max(worst_expm1, e);
    ASSERT_LE(e, 2.0) << "Expm1(" << std::hexfloat << x << ")";
    if (x > -1.0) {
      const double l = UlpError(simd::Log1p(x),
                                std::log1p(static_cast<long double>(x)));
      worst_log1p = std::max(worst_log1p, l);
      ASSERT_LE(l, 2.0) << "Log1p(" << std::hexfloat << x << ")";
    }
  }
  RecordProperty("worst_expm1_ulp", std::to_string(worst_expm1));
  RecordProperty("worst_log1p_ulp", std::to_string(worst_log1p));
}

TEST(SimdMath, Expm1AndLog1pStayAccurateNearZero) {
  // exp(x) - 1 and log(1 + x) lose every bit the rounding of e^x or 1 + x
  // drops; near 0 that is most of them, far past 2 ulp.
  for (int k = 1; k <= 60; ++k) {
    for (double x : {std::ldexp(1.0, -k), -std::ldexp(1.0, -k),
                     std::ldexp(1.37, -k), -std::ldexp(1.37, -k)}) {
      const long double lx = x;
      EXPECT_LE(UlpError(simd::Expm1(x), std::expm1(lx)), 2.0) << x;
      EXPECT_LE(UlpError(simd::Log1p(x), std::log1p(lx)), 2.0) << x;
    }
  }
  const double x = 1e-10;
  EXPECT_GT(UlpError(std::exp(x) - 1.0, std::expm1(1e-10L)), 1000.0);
  EXPECT_GT(UlpError(std::log(1.0 + x), std::log1p(1e-10L)), 1000.0);
}

TEST(SimdMath, Expm1AndLog1pSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denormal = std::numeric_limits<double>::denorm_min();
  // +-0 keep their sign; denormals and tiny values return themselves.
  for (double x : {0.0, -0.0, denormal, -denormal, 1e-310, -1e-310,
                   std::ldexp(1.0, -55), -std::ldexp(1.0, -55)}) {
    EXPECT_TRUE(BitEqual(simd::Expm1(x), x)) << x;
    EXPECT_TRUE(BitEqual(simd::Log1p(x), x)) << x;
  }
  EXPECT_EQ(simd::Expm1(inf), inf);
  EXPECT_EQ(simd::Expm1(-inf), -1.0);
  EXPECT_TRUE(std::isnan(simd::Expm1(nan)));
  EXPECT_EQ(simd::Log1p(inf), inf);
  EXPECT_TRUE(std::isnan(simd::Log1p(-inf)));
  EXPECT_TRUE(std::isnan(simd::Log1p(nan)));
  EXPECT_EQ(simd::Log1p(-1.0), -inf);
  EXPECT_TRUE(std::isnan(simd::Log1p(std::nextafter(-1.0, -2.0))));
  EXPECT_TRUE(std::isnan(simd::Log1p(-2.0)));
  // Overflow edge: the last finite expm1 and the first infinite one.
  const double edge = 0x1.62e42fefa39efp+9;  // ~709.7827, e^edge < DBL_MAX
  EXPECT_TRUE(std::isfinite(simd::Expm1(edge)));
  EXPECT_LE(UlpError(simd::Expm1(edge), std::expm1(static_cast<long double>(
                                            edge))),
            2.0);
  EXPECT_EQ(simd::Expm1(std::nextafter(edge, inf)), inf);
  EXPECT_EQ(simd::Expm1(1e300), inf);
  // Underflow edge: e^x drops below half an ulp of 1 near x = -37.43.
  EXPECT_EQ(simd::Expm1(-38.0), -1.0);
  EXPECT_EQ(simd::Expm1(-1e300), -1.0);
  EXPECT_GT(simd::Expm1(-37.0), -1.0);
  // The extremes of Log1p's domain.
  const double near_minus_one = std::nextafter(-1.0, 0.0);
  EXPECT_LE(UlpError(simd::Log1p(near_minus_one),
                     std::log1p(static_cast<long double>(near_minus_one))),
            2.0);
  const double max = std::numeric_limits<double>::max();
  EXPECT_LE(UlpError(simd::Log1p(max),
                     std::log1p(static_cast<long double>(max))),
            2.0);
}

TEST(SimdMath, EveryLaneEqualsTheScalarForm) {
  // Special values and random arguments, rotated over the lanes so every
  // value passes through every lane.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(77);
  std::vector<double> values = {0.0,  -0.0, 1e-310, -1e-310, inf,  -inf,
                                nan,  -nan, -1.0,   -2.0,    710.0, 709.8,
                                -40.0, -745.0, 1e300, -1e300, 0.34657,
                                -0.34657, 1.0397, -1.0397, 0.41421, -0.29289};
  const std::vector<double> random = TranscendentalArguments(rng, 4001);
  values.insert(values.end(), random.begin(), random.end());
  for (size_t start = 0; start < values.size(); ++start) {
    double lanes[VecD::kLanes];
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      lanes[i] = values[(start + i) % values.size()];
    }
    const VecD v = VecD::Load(lanes);
    const VecD e = simd::Expm1(v);
    const VecD l = simd::Log1p(v);
    for (size_t i = 0; i < VecD::kLanes; ++i) {
      ASSERT_TRUE(BitEqual(e.Lane(i), simd::Expm1(lanes[i])))
          << "Expm1 lane " << i << " of " << lanes[i];
      ASSERT_TRUE(BitEqual(l.Lane(i), simd::Log1p(lanes[i])))
          << "Log1p lane " << i << " of " << lanes[i];
    }
  }
}

}  // namespace
}  // namespace autofp
