#ifndef AUTOFP_UTIL_SIMD_MATH_H_
#define AUTOFP_UTIL_SIMD_MATH_H_

/// Deterministic transcendentals over the SIMD wrapper (DESIGN.md "Kernel
/// layer and memory layout", "Transcendentals").
///
/// Each function is one template body run on a lane type: VecD for the
/// vector form, ScalarD for the scalar form. The body is range reduction,
/// then a fixed polynomial, then selects for the special values, all in
/// lane ops that are single correctly-rounded IEEE operations or exact bit
/// work (util/simd.h's contract; no FMA, -ffp-contract=off). So every
/// AVX2 and NEON lane equals the scalar form bit for bit, the scalar
/// backend runs that same form, and no result depends on the host's libm.
///
/// Accuracy: within 2 ulp of the exact value over the whole domain
/// (tests/test_simd.cc checks against a long double reference); both are
/// accurate near 0, where expm1(x) ~ x and log1p(x) ~ x.
///
/// The scalar forms cost about what glibc's do (Expm1 a little less,
/// Log1p more), so a build with only the scalar backend runs the Power fit
/// and transform at about their libm speed; the forced-scalar fields of
/// BENCH_kernels.json's Power cell give that cost.

#include "util/simd.h"

#include <array>
#include <limits>

namespace autofp {
namespace simd {
namespace math_internal {

// Cody-Waite split of ln 2: kLn2Hi has 32 significant bits, so k * kLn2Hi
// is exact for |k| < 2^21.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;

/// kInvFactorial[n] = 1/n!, correctly rounded (n! is exact in a double
/// up to 18!).
inline constexpr auto kInvFactorial = [] {
  std::array<double, 14> table{};
  double factorial = 1.0;
  for (int n = 0; n < 14; ++n) {
    factorial *= n > 1 ? n : 1;
    table[n] = 1.0 / factorial;
  }
  return table;
}();

/// Below this magnitude expm1(x) and log1p(x) both round to x.
inline constexpr double kTiny = 0x1p-54;

/// expm1(x) for x in [-40, 710] after the clamp: x = k ln2 + r with
/// |r| <= ln2 / 2, and expm1(x) = 2^k (1 + expm1(r)) - 1.
template <typename V>
V Expm1Lanes(V x) {
  const V inf = V::Set1(std::numeric_limits<double>::infinity());
  // Past 710 the result overflows; below -40 it rounds to -1. The clamp
  // keeps k in range and passes NaN through (both compares are false).
  V xc = V::Select(V::Gt(x, V::Set1(710.0)), V::Set1(710.0), x);
  xc = V::Select(V::Gt(V::Set1(-40.0), xc), V::Set1(-40.0), xc);

  const V k = (xc * V::Set1(kInvLn2)).Round();
  const V hi = xc - k * V::Set1(kLn2Hi);  // exact (Sterbenz)
  const V lo = k * V::Set1(kLn2Lo);
  const V r = hi - lo;
  const V c = (hi - r) - lo;  // the rounding error of r

  // q = expm1(r) - r = sum_{n>=2} r^n / n!, Taylor through r^13: the
  // first omitted term is under 0.1 ulp of the result for |r| <= ln2/2.
  // Estrin's scheme, so the dependency chain is 4 products deep, not 12.
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const auto pair = [&r](int n) {
    return V::Set1(kInvFactorial[n]) + r * V::Set1(kInvFactorial[n + 1]);
  };
  const V poly = ((pair(2) + pair(4) * r2) + (pair(6) + pair(8) * r2) * r4) +
                 (pair(10) + pair(12) * r2) * (r4 * r4);
  const V q = r2 * poly;
  // expm1(r + c) ~ r + q + c (1 + r + q).
  const V one = V::Set1(1.0);
  const V corr = q + c * ((r + q) + one);

  // 2^k (1 + r + corr) - 1 as (2^k - 1) + 2^k r, summed exactly (TwoSum),
  // plus 2^k corr: one rounding at the end. 2^1024 does not exist, so
  // k = 1024 scales by 2^1023 and doubles the result.
  const auto top = V::Gt(k, V::Set1(1023.5));
  const V t = V::Pow2(k - V::Select(top, one, V::Zero()));
  const V a = t - one;
  const V b = t * r;
  const V s = a + b;
  const V bb = s - a;
  const V err = (a - (s - bb)) + (b - bb);
  V y = (s + (err + t * corr)) * V::Select(top, V::Set1(2.0), one);

  y = V::Select(V::Gt(V::Set1(kTiny), x.Abs()), x, y);  // +-0, denormals
  y = V::Select(V::Le(x, inf), y, x);                   // NaN
  return y;
}

// log(1 + f) = 2s + s R(z) with s = f / (2 + f), z = s^2 and
// R(z) = z (Lp1 + z (Lp2 + ... + z Lp7)): the minimax coefficients of
// fdlibm's s_log1p.c (Sun Microsystems, freely distributable).
inline constexpr double kLp1 = 0x1.5555555555593p-1;
inline constexpr double kLp2 = 0x1.999999997fa04p-2;
inline constexpr double kLp3 = 0x1.2492494229359p-2;
inline constexpr double kLp4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLp5 = 0x1.7466496cb03dep-3;
inline constexpr double kLp6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLp7 = 0x1.2f112df3e5244p-3;
/// Where the significand splits from [1, sqrt2) to [sqrt2/2, 1).
inline constexpr double kSqrt2Split = 0x1.6a09ep+0;

/// log1p(x) as k ln2 + log(1 + f) with 1 + x = 2^k (1 + f) and
/// f in [sqrt2/2 - 1, sqrt2 - 1); log(1 + f) = 2 atanh(s), s = f/(2 + f).
template <typename V>
V Log1pLanes(V x) {
  const V one = V::Set1(1.0);
  const V zero = V::Zero();
  const V inf = V::Set1(std::numeric_limits<double>::infinity());
  const V u = one + x;
  V k = u.Exponent();
  V m = u.Mantissa();
  const auto high = V::Le(V::Set1(kSqrt2Split), m);
  m = V::Select(high, m * V::Set1(0.5), m);
  k = k + V::Select(high, one, zero);
  // k = 0 takes f = x itself, so small x loses nothing to 1 + x. Else c
  // is the rounding error of u = 1 + x (Fast2Sum, larger operand first),
  // and log(u + c) ~ log(u) + c / u.
  const auto k_zero = V::Gt(V::Set1(0.5), k.Abs());
  const V f = V::Select(k_zero, x, m - one);
  const V c_raw =
      V::Select(V::Le(one, x), one - (u - x), x - (u - one)) / u;
  const V c = V::Select(k_zero, zero, c_raw);

  const V hfsq = V::Set1(0.5) * f * f;
  const V s = f / (V::Set1(2.0) + f);
  const V z = s * s;
  V poly = V::Set1(kLp7);
  poly = poly * z + V::Set1(kLp6);
  poly = poly * z + V::Set1(kLp5);
  poly = poly * z + V::Set1(kLp4);
  poly = poly * z + V::Set1(kLp3);
  poly = poly * z + V::Set1(kLp2);
  poly = poly * z + V::Set1(kLp1);
  const V rr = z * poly;
  V y = k * V::Set1(kLn2Hi) -
        ((hfsq - (s * (hfsq + rr) + (k * V::Set1(kLn2Lo) + c))) - f);

  y = V::Select(V::Gt(V::Set1(kTiny), x.Abs()), x, y);  // +-0, denormals
  // log1p(-1) = -inf; below -1 (and -inf) the result is NaN.
  const V below = V::Select(V::Le(V::Set1(-1.0), x), -inf,
                            V::Set1(std::numeric_limits<double>::quiet_NaN()));
  y = V::Select(V::Le(x, V::Set1(-1.0)), below, y);
  y = V::Select(V::Gt(x, V::Set1(std::numeric_limits<double>::max())), x, y);
  y = V::Select(V::Le(x, inf), y, x);  // NaN
  return y;
}

}  // namespace math_internal

/// e^x - 1, accurate near 0.
inline double Expm1(double x) {
  return math_internal::Expm1Lanes(ScalarD{x}).v;
}
/// log(1 + x), accurate near 0; -inf at -1, NaN below.
inline double Log1p(double x) {
  return math_internal::Log1pLanes(ScalarD{x}).v;
}

/// The vector forms: each lane is the scalar form's bits.
inline VecD Expm1(VecD x) { return math_internal::Expm1Lanes(x); }
inline VecD Log1p(VecD x) { return math_internal::Log1pLanes(x); }

}  // namespace simd
}  // namespace autofp

#endif  // AUTOFP_UTIL_SIMD_MATH_H_
