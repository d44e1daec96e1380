#ifndef AUTOFP_UTIL_SIMD_H_
#define AUTOFP_UTIL_SIMD_H_

/// Portable SIMD wrapper for the kernel layer (DESIGN.md "Kernel layer
/// and memory layout").
///
/// Backend is chosen at compile time:
///   - AVX2 when the build enables it (top-level CMakeLists passes -mavx2
///     on x86-64 hosts whose compiler supports it) — 4 double lanes.
///   - NEON on AArch64 (implied by the baseline ISA) — 2 double lanes.
///   - Scalar fallback otherwise, or when AUTOFP_DISABLE_SIMD is defined
///     (only the test_simd_scalar target defines it) — 1 lane, plain
///     IEEE arithmetic.
///
/// Exactness contract: every lane op here maps to a single IEEE-754
/// correctly-rounded operation (add/sub/mul/div/sqrt/abs/neg/compare/
/// select; the compares Gt and Le are ordered, so a NaN lane compares
/// false, as scalar > and <= do) or to exact integer work on the bits
/// (Round, Pow2, Exponent, Mantissa), so a vectorized elementwise loop
/// is bit-identical to its scalar reference regardless of backend. The
/// 1-lane ScalarD is that reference: it exists in every build, is the
/// VecD of the scalar backend, and util/simd_math.h runs its
/// transcendentals on it for the scalar forms. No FMA
/// is ever emitted (the build also passes -ffp-contract=off so the
/// compiler cannot contract the scalar references either). The only
/// helpers that reassociate — and are therefore tolerance-gated, not
/// bit-exact against a scalar loop — are the horizontal reductions:
/// VecD::Sum(), VecD::SumEach() (lane r is exactly acc[r].Sum()) and
/// Dot().
///
/// Loads and stores are unaligned-safe; Matrix storage is 64-byte
/// aligned (util/aligned.h) purely as a performance property.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if !defined(AUTOFP_DISABLE_SIMD) && defined(__AVX2__)
#define AUTOFP_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(AUTOFP_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define AUTOFP_SIMD_NEON 1
#include <arm_neon.h>
#else
#define AUTOFP_SIMD_SCALAR 1
#endif

namespace autofp {
namespace simd {

#if defined(AUTOFP_SIMD_AVX2)
inline constexpr bool kEnabled = true;
inline constexpr const char* kBackendName = "avx2";
#elif defined(AUTOFP_SIMD_NEON)
inline constexpr bool kEnabled = true;
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr bool kEnabled = false;
inline constexpr const char* kBackendName = "scalar";
#endif

/// Runtime escape hatch: when set, the dispatching kernel entry points
/// (preprocess/kernels.h, Dot/Axpy below) take their scalar reference
/// path even in a SIMD build. The one runtime switch: the property tests
/// and the exactness oracle (tests/test_exactness.cc) compare both paths
/// inside one binary, and the micro-bench roofline report measures the
/// scalar baseline with it. Not for production call sites. Relaxed is
/// enough: the flag is flipped while no kernels run concurrently.
inline std::atomic<bool> g_force_scalar{false};
inline bool ForceScalarEnabled() {
  return g_force_scalar.load(std::memory_order_relaxed);
}
inline void SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

/// RAII form for tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) : previous_(ForceScalarEnabled()) {
    SetForceScalar(force);
  }
  ~ScopedForceScalar() { SetForceScalar(previous_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

/// 0x1.8p52: adding it to an integral double |k| < 2^51 leaves k, offset
/// by 2^51, in the low mantissa bits, which is how Pow2 reads k without a
/// float-to-int conversion (AVX2 has no 64-bit one).
inline constexpr double kIntegerMagic = 0x1.8p52;
inline constexpr uint64_t kMantissaBits = 0x000FFFFFFFFFFFFFull;
inline constexpr uint64_t kOneBits = 0x3FF0000000000000ull;  ///< 1.0

/// One double "lane": the scalar backend's VecD, and in every build the
/// reference form of each lane op below.
struct ScalarD {
  double v;
  static constexpr size_t kLanes = 1;

  static ScalarD Load(const double* p) { return {*p}; }
  static ScalarD Set1(double x) { return {x}; }
  static ScalarD Zero() { return {0.0}; }
  void Store(double* p) const { *p = v; }

  ScalarD operator+(ScalarD o) const { return {v + o.v}; }
  ScalarD operator-(ScalarD o) const { return {v - o.v}; }
  ScalarD operator*(ScalarD o) const { return {v * o.v}; }
  ScalarD operator/(ScalarD o) const { return {v / o.v}; }
  /// Flips the sign bit (so -(+0.0) is -0.0, unlike 0.0 - x).
  ScalarD operator-() const { return {-v}; }

  ScalarD Abs() const { return {std::fabs(v)}; }
  ScalarD Sqrt() const { return {std::sqrt(v)}; }
  /// Nearest integer, ties to even.
  ScalarD Round() const { return {std::nearbyint(v)}; }
  /// 2^k for an integral k in [-1022, 1023], assembled in the exponent
  /// field.
  static ScalarD Pow2(ScalarD k) {
    const uint64_t bits = std::bit_cast<uint64_t>(k.v + kIntegerMagic);
    return {std::bit_cast<double>((bits + 1023) << 52)};
  }
  /// The unbiased binary exponent of a positive normal value.
  ScalarD Exponent() const {
    const uint64_t field = std::bit_cast<uint64_t>(v) >> 52;
    return {static_cast<double>(static_cast<int64_t>(field) - 1023)};
  }
  /// The significand of a positive normal value, in [1, 2).
  ScalarD Mantissa() const {
    return {std::bit_cast<double>(
        (std::bit_cast<uint64_t>(v) & kMantissaBits) | kOneBits)};
  }

  /// Scalar "masks" are plain bools consumed by Select.
  static bool Gt(ScalarD a, ScalarD b) { return a.v > b.v; }
  static bool Le(ScalarD a, ScalarD b) { return a.v <= b.v; }
  static ScalarD Select(bool mask, ScalarD a, ScalarD b) {
    return mask ? a : b;
  }

  double Sum() const { return v; }
  /// One Sum() per vector of acc[0..kLanes), lane r holding acc[r]'s.
  static ScalarD SumEach(const ScalarD* acc) { return acc[0]; }
  double Lane(size_t) const { return v; }
};

#if defined(AUTOFP_SIMD_AVX2)

struct VecD {
  __m256d v;
  static constexpr size_t kLanes = 4;

  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD Set1(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Zero() { return {_mm256_setzero_pd()}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  VecD operator+(VecD o) const { return {_mm256_add_pd(v, o.v)}; }
  VecD operator-(VecD o) const { return {_mm256_sub_pd(v, o.v)}; }
  VecD operator*(VecD o) const { return {_mm256_mul_pd(v, o.v)}; }
  VecD operator/(VecD o) const { return {_mm256_div_pd(v, o.v)}; }

  VecD operator-() const { return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))}; }

  VecD Abs() const {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), v)};
  }
  VecD Sqrt() const { return {_mm256_sqrt_pd(v)}; }
  VecD Round() const {
    return {_mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }
  static VecD Pow2(VecD k) {
    const __m256i bits =
        _mm256_castpd_si256(_mm256_add_pd(k.v, _mm256_set1_pd(kIntegerMagic)));
    return {_mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(bits, _mm256_set1_epi64x(1023)), 52))};
  }
  /// The exponent field, ORed under 2^52's bits, reads 2^52 + field.
  VecD Exponent() const {
    const __m256i field = _mm256_srli_epi64(_mm256_castpd_si256(v), 52);
    const __m256d biased = _mm256_castsi256_pd(
        _mm256_or_si256(field, _mm256_set1_epi64x(0x4330000000000000ll)));
    return {_mm256_sub_pd(biased, _mm256_set1_pd(0x1p52 + 1023.0))};
  }
  VecD Mantissa() const {
    const __m256i bits = _mm256_castpd_si256(v);
    return {_mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(kMantissaBits)),
        _mm256_set1_epi64x(kOneBits)))};
  }

  /// Comparisons return an all-ones / all-zeros lane mask (as a VecD).
  static VecD Gt(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  /// a <= b; ordered, so a NaN lane compares false, as scalar <= does.
  static VecD Le(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  /// Lanes from `a` where the mask lane is set, else from `b`.
  static VecD Select(VecD mask, VecD a, VecD b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }

  /// Horizontal sum. Reassociates (pairwise) — tolerance-gated only.
  double Sum() const {
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d pair = _mm_add_pd(lo, hi);
    __m128d swap = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
  }
  /// Lane r is acc[r].Sum(), bit for bit: the half-swaps pair row r's
  /// lanes as Sum() does, (a0 + a2, a1 + a3) with the low half first, and
  /// the unpacks bring each row's two pair sums into lane r for the last
  /// add, again in Sum()'s operand order.
  static VecD SumEach(const VecD* acc) {
    const auto pairs = [](__m256d a, __m256d b) {
      return _mm256_add_pd(_mm256_permute2f128_pd(a, b, 0x20),
                           _mm256_permute2f128_pd(a, b, 0x31));
    };
    const __m256d even = pairs(acc[0].v, acc[2].v);  // rows 0 and 2.
    const __m256d odd = pairs(acc[1].v, acc[3].v);   // rows 1 and 3.
    return {_mm256_add_pd(_mm256_unpacklo_pd(even, odd),
                          _mm256_unpackhi_pd(even, odd))};
  }

  double Lane(size_t i) const {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return lanes[i];
  }
};

#elif defined(AUTOFP_SIMD_NEON)

struct VecD {
  float64x2_t v;
  static constexpr size_t kLanes = 2;

  static VecD Load(const double* p) { return {vld1q_f64(p)}; }
  static VecD Set1(double x) { return {vdupq_n_f64(x)}; }
  static VecD Zero() { return {vdupq_n_f64(0.0)}; }
  void Store(double* p) const { vst1q_f64(p, v); }

  VecD operator+(VecD o) const { return {vaddq_f64(v, o.v)}; }
  VecD operator-(VecD o) const { return {vsubq_f64(v, o.v)}; }
  VecD operator*(VecD o) const { return {vmulq_f64(v, o.v)}; }
  VecD operator/(VecD o) const { return {vdivq_f64(v, o.v)}; }

  VecD operator-() const { return {vnegq_f64(v)}; }

  VecD Abs() const { return {vabsq_f64(v)}; }
  VecD Sqrt() const { return {vsqrtq_f64(v)}; }
  VecD Round() const { return {vrndnq_f64(v)}; }
  static VecD Pow2(VecD k) {
    const int64x2_t bits =
        vreinterpretq_s64_f64(vaddq_f64(k.v, vdupq_n_f64(kIntegerMagic)));
    return {vreinterpretq_f64_s64(
        vshlq_n_s64(vaddq_s64(bits, vdupq_n_s64(1023)), 52))};
  }
  VecD Exponent() const {
    const int64x2_t field =
        vreinterpretq_s64_u64(vshrq_n_u64(vreinterpretq_u64_f64(v), 52));
    return {vcvtq_f64_s64(vsubq_s64(field, vdupq_n_s64(1023)))};
  }
  VecD Mantissa() const {
    const uint64x2_t bits = vreinterpretq_u64_f64(v);
    return {vreinterpretq_f64_u64(
        vorrq_u64(vandq_u64(bits, vdupq_n_u64(kMantissaBits)),
                  vdupq_n_u64(kOneBits)))};
  }

  static VecD Gt(VecD a, VecD b) {
    return {vreinterpretq_f64_u64(vcgtq_f64(a.v, b.v))};
  }
  static VecD Le(VecD a, VecD b) {
    return {vreinterpretq_f64_u64(vcleq_f64(a.v, b.v))};
  }
  static VecD Select(VecD mask, VecD a, VecD b) {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v)};
  }

  double Sum() const { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }
  /// Lane r is acc[r].Sum(): the pairwise add is lane 0 + lane 1 per input.
  static VecD SumEach(const VecD* acc) {
    return {vpaddq_f64(acc[0].v, acc[1].v)};
  }
  double Lane(size_t i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }
};

#else  // scalar fallback

using VecD = ScalarD;

#endif

inline constexpr size_t kDoubleLanes = VecD::kLanes;

/// Branchless std::upper_bound over a sorted table: returns the number of
/// elements <= value (== upper_bound - begin). The iteration count
/// depends only on `n`, never on the data, so the descent compiles to
/// conditional adds instead of unpredictable branches.
inline size_t UpperBoundIndex(const double* refs, size_t n, double value) {
  size_t base = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += refs[base + half - 1] <= value ? half : 0;
    len -= half;
  }
  // One element left: the window holds the answer directly.
  return base + (n > 0 && refs[base] <= value ? 1 : 0);
}

/// Branchless std::lower_bound: the number of elements < value. Same
/// shape as UpperBoundIndex with a strict comparison.
inline size_t LowerBoundIndex(const double* refs, size_t n, double value) {
  size_t base = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += refs[base + half - 1] < value ? half : 0;
    len -= half;
  }
  return base + (n > 0 && refs[base] < value ? 1 : 0);
}

/// Dot product. Vector accumulation reassociates the sum (lane-striped
/// plus a pairwise horizontal reduce), so results differ from the scalar
/// loop in the low bits: users (MLP/LSTM GEMM, LR logits) are
/// tolerance-gated, never bit-compared against scalar references.
inline double DotScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline double Dot(const double* a, const double* b, size_t n) {
  if (VecD::kLanes == 1 || ForceScalarEnabled()) return DotScalar(a, b, n);
  VecD acc = VecD::Zero();
  for (size_t i = 0; i + VecD::kLanes <= n; i += VecD::kLanes) {
    acc = acc + VecD::Load(a + i) * VecD::Load(b + i);
  }
  double sum = acc.Sum();
  // The tail starts where the vector loop stopped. Spelled out, so GCC
  // does not warn (-Waggressive-loop-optimizations) for a constant n.
  for (size_t i = n - n % VecD::kLanes; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y[i] += alpha * x[i]. Elementwise — bit-identical to the scalar loop
/// on every backend (each lane is one mul and one add, no reassociation).
inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  size_t i = 0;
  if (VecD::kLanes > 1 && !ForceScalarEnabled()) {
    const VecD va = VecD::Set1(alpha);
    for (; i + VecD::kLanes <= n; i += VecD::kLanes) {
      (VecD::Load(y + i) + va * VecD::Load(x + i)).Store(y + i);
    }
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Fills n doubles with `value` (vectorized memset for scratch reuse).
inline void Fill(double* p, double value, size_t n) {
  size_t i = 0;
  if (VecD::kLanes > 1) {
    const VecD v = VecD::Set1(value);
    for (; i + VecD::kLanes <= n; i += VecD::kLanes) v.Store(p + i);
  }
  for (; i < n; ++i) p[i] = value;
}

}  // namespace simd
}  // namespace autofp

#endif  // AUTOFP_UTIL_SIMD_H_
