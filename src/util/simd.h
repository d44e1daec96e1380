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
/// correctly-rounded operation (add/sub/mul/div/sqrt/abs/compare/
/// select), so a vectorized elementwise loop is bit-identical to its
/// scalar reference regardless of backend. No FMA is ever emitted (the
/// build also passes -ffp-contract=off so the compiler cannot contract
/// the scalar references either). The only helpers that reassociate —
/// and are therefore tolerance-gated, not bit-exact — are the horizontal
/// reductions: VecD::Sum() and Dot().
///
/// Loads and stores are unaligned-safe; Matrix storage is 64-byte
/// aligned (util/aligned.h) purely as a performance property.

#include <atomic>
#include <cmath>
#include <cstddef>

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

  VecD Abs() const {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), v)};
  }
  VecD Sqrt() const { return {_mm256_sqrt_pd(v)}; }

  /// Comparisons return an all-ones / all-zeros lane mask (as a VecD).
  static VecD Gt(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
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

  VecD Abs() const { return {vabsq_f64(v)}; }
  VecD Sqrt() const { return {vsqrtq_f64(v)}; }

  static VecD Gt(VecD a, VecD b) {
    return {vreinterpretq_f64_u64(vcgtq_f64(a.v, b.v))};
  }
  static VecD Select(VecD mask, VecD a, VecD b) {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v)};
  }

  double Sum() const { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }
  double Lane(size_t i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }
};

#else  // scalar fallback

struct VecD {
  double v;
  static constexpr size_t kLanes = 1;

  static VecD Load(const double* p) { return {*p}; }
  static VecD Set1(double x) { return {x}; }
  static VecD Zero() { return {0.0}; }
  void Store(double* p) const { *p = v; }

  VecD operator+(VecD o) const { return {v + o.v}; }
  VecD operator-(VecD o) const { return {v - o.v}; }
  VecD operator*(VecD o) const { return {v * o.v}; }
  VecD operator/(VecD o) const { return {v / o.v}; }

  VecD Abs() const { return {std::fabs(v)}; }
  VecD Sqrt() const { return {std::sqrt(v)}; }

  /// Scalar "masks" are plain bools consumed by Select.
  static bool Gt(VecD a, VecD b) { return a.v > b.v; }
  static VecD Select(bool mask, VecD a, VecD b) { return mask ? a : b; }

  double Sum() const { return v; }
  double Lane(size_t) const { return v; }
};

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
