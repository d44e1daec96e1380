#include "preprocess/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/simd.h"
#include "util/simd_math.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace autofp {
namespace kernels {

namespace {

using simd::VecD;

constexpr size_t kLanes = simd::kDoubleLanes;

bool SimdOn() { return kLanes > 1 && !simd::ForceScalarEnabled(); }

constexpr double kLambdaEps = 1e-8;
constexpr double kValueClamp = 1e100;

/// Power's output clamp: NaN -> 0, else clip to +-1e100.
double ClampFinite(double value) {
  if (std::isnan(value)) return 0.0;
  return std::clamp(value, -kValueClamp, kValueClamp);
}

/// ClampFinite on lanes, branch-free: `v <= v` is false only for NaN.
VecD ClampFinite(VecD v) {
  const VecD hi = VecD::Set1(kValueClamp);
  const VecD lo = VecD::Set1(-kValueClamp);
  const VecD clipped = VecD::Select(
      VecD::Gt(lo, v), lo, VecD::Select(VecD::Gt(v, hi), hi, v));
  return VecD::Select(VecD::Le(v, v), clipped, VecD::Zero());
}

/// Rows per block of the Power transform: a column's block is copied out
/// to a stack buffer, so its lanes are rows.
constexpr size_t kPowerBlockRows = 256;

/// Runs fn(begin, end) over the row blocks of a `rows`-row matrix through
/// ThreadPool::HelpFor: blocks of kTransformBlockRows rows, the last one
/// also taking the remainder. A search's train split (9,600 rows in the
/// e2e workloads) spreads over idle pool workers; a matrix of fewer than
/// 2 * kTransformBlockRows rows, such as a 256-row serving shard, is one
/// block and runs as a plain loop on its caller. Each element is
/// transformed on its own, so the output is the same bytes whichever
/// thread runs a block.
template <typename Fn>
void ForRowBlocks(size_t rows, const Fn& fn) {
  const size_t blocks = std::max<size_t>(1, rows / kTransformBlockRows);
  ThreadPool::HelpFor(blocks, [&](size_t block) {
    const size_t begin = block * kTransformBlockRows;
    fn(begin, block + 1 == blocks ? rows : begin + kTransformBlockRows);
  });
}

/// Piecewise-linear empirical CDF of one value against a sorted table,
/// exactly as the pre-kernel-layer QuantileTransformer computed it (the
/// branchless UpperBoundIndex returns the same index std::upper_bound
/// did).
double CdfScalar(double value, const double* refs, size_t n, double denom) {
  if (value <= refs[0]) return 0.0;
  if (value >= refs[n - 1]) return 1.0;
  // Past both guards the index lies in [1, n - 1], unless the value or
  // the table is NaN: then it may be 0 or n, and the clamp keeps the
  // reads inside the table.
  const size_t hi =
      std::clamp<size_t>(simd::UpperBoundIndex(refs, n, value), 1, n - 1);
  const size_t lo = hi - 1;
  const double gap = refs[hi] - refs[lo];
  const double fraction = gap > 0.0 ? (value - refs[lo]) / gap : 0.0;
  return (static_cast<double>(lo) + fraction) / denom;
}

/// Clip CDF values away from {0,1} before the normal inverse, matching
/// scikit-learn's bounded output (~±5.2 sigma).
constexpr double kCdfEps = 1e-7;

// The block bodies below take their inputs as values, not through a
// lambda's captures, so the compiler keeps them in registers across the
// calls inside the loops.

/// The Power transform of rows [begin, end) of the row-major `p` with
/// `cols` columns: one column at a time, in pieces of kPowerBlockRows rows
/// copied out to a buffer, so the element functions run down the column
/// on contiguous lanes with the column's parameters fixed.
void PowerTransformRows(double* p, size_t cols, size_t begin, size_t end,
                        const double* lambdas, const double* means,
                        const double* stddevs, bool standardize) {
  double x[kPowerBlockRows];
  double logs[kPowerBlockRows];
  for (size_t c = 0; c < cols; ++c) {
    const double lambda = lambdas[c];
    const double mean = means[c];
    const double stddev = stddevs[c];
    for (size_t r0 = begin; r0 < end; r0 += kPowerBlockRows) {
      const size_t n = std::min(kPowerBlockRows, end - r0);
      double* column = p + r0 * cols + c;
      for (size_t i = 0; i < n; ++i) x[i] = column[i * cols];
      Log1pAbs(x, n, logs);
      YeoJohnson(x, logs, n, lambda, x);
      for (size_t i = 0; i < n; ++i) {
        double value = x[i];
        if (standardize) value = (value - mean) / stddev;
        column[i * cols] = ClampFinite(value);
      }
    }
  }
}

/// The Quantile transform of rows [begin, end): one column at a time
/// (stride cols), so the column's reference table stays in L1 for the
/// pass; row order would cycle through every column's table per row.
void QuantileTransformRows(double* p, size_t cols, size_t begin, size_t end,
                           const std::vector<double>* references,
                           bool to_normal) {
  for (size_t c = 0; c < cols; ++c) {
    const double* refs = references[c].data();
    const size_t n = references[c].size();
    const double denom = static_cast<double>(n - 1);
    for (size_t r = begin; r < end; ++r) {
      double& x = p[r * cols + c];
      const double cdf = CdfScalar(x, refs, n, denom);
      // A NaN value's cdf is NaN, and it passes through as the uniform
      // output does: NormalInverseCdf aborts outside (0, 1).
      x = to_normal && !std::isnan(cdf)
              ? NormalInverseCdf(std::clamp(cdf, kCdfEps, 1.0 - kCdfEps))
              : cdf;
    }
  }
}

}  // namespace

void Binarize(Matrix& data, double threshold) {
  double* p = data.MutableRaw();
  const size_t n = data.size();
  size_t i = 0;
  if (SimdOn()) {
    const VecD vt = VecD::Set1(threshold);
    const VecD one = VecD::Set1(1.0);
    const VecD zero = VecD::Zero();
    for (; i + kLanes <= n; i += kLanes) {
      const VecD v = VecD::Load(p + i);
      VecD::Select(VecD::Gt(v, vt), one, zero).Store(p + i);
    }
  }
  for (; i < n; ++i) p[i] = p[i] > threshold ? 1.0 : 0.0;
}

void ScaleColumns(Matrix& data, const std::vector<double>& scales) {
  const size_t cols = data.cols();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        (VecD::Load(row + c) / VecD::Load(scales.data() + c)).Store(row + c);
      }
    }
    for (; c < cols; ++c) row[c] /= scales[c];
  }
}

void ShiftScaleColumns(Matrix& data, const std::vector<double>& shifts,
                       const std::vector<double>& scales) {
  const size_t cols = data.cols();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        ((VecD::Load(row + c) - VecD::Load(shifts.data() + c)) /
         VecD::Load(scales.data() + c))
            .Store(row + c);
      }
    }
    for (; c < cols; ++c) row[c] = (row[c] - shifts[c]) / scales[c];
  }
}

void NormalizeRows(Matrix& data, NormKind kind) {
  // The norm is a per-row reduction: it stays scalar (vectorizing it
  // would reassociate and break exactness); the divide is elementwise
  // and vectorizes.
  const size_t cols = data.cols();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    double* row = data.RowPtr(r);
    double norm = 0.0;
    switch (kind) {
      case NormKind::kL1:
        for (size_t c = 0; c < cols; ++c) norm += std::abs(row[c]);
        break;
      case NormKind::kL2:
        for (size_t c = 0; c < cols; ++c) norm += row[c] * row[c];
        norm = std::sqrt(norm);
        break;
      case NormKind::kMax:
        for (size_t c = 0; c < cols; ++c) {
          const double abs_value = std::abs(row[c]);
          if (abs_value > norm) norm = abs_value;
        }
        break;
    }
    if (norm == 0.0) norm = 1.0;
    size_t c = 0;
    if (simd_on) {
      const VecD vn = VecD::Set1(norm);
      for (; c + kLanes <= cols; c += kLanes) {
        (VecD::Load(row + c) / vn).Store(row + c);
      }
    }
    for (; c < cols; ++c) row[c] /= norm;
  }
}

double Log1pAbs(double x) { return simd::Log1p(x >= 0.0 ? x : -x); }

double YeoJohnsonFromLog(double x, double log1p_abs, double lambda) {
  if (x >= 0.0) {
    if (std::abs(lambda) < kLambdaEps) return log1p_abs;
    // ((x+1)^lambda - 1) / lambda, computed via expm1 for stability.
    return ClampFinite(simd::Expm1(lambda * log1p_abs) / lambda);
  }
  const double two_minus = 2.0 - lambda;
  if (std::abs(two_minus) < kLambdaEps) return -log1p_abs;
  // -(((1-x)^(2-lambda)) - 1) / (2-lambda).
  return ClampFinite(-simd::Expm1(two_minus * log1p_abs) / two_minus);
}

void Log1pAbs(const double* x, size_t n, double* out) {
  size_t i = 0;
  if (SimdOn()) {
    const VecD zero = VecD::Zero();
    for (; i + kLanes <= n; i += kLanes) {
      const VecD v = VecD::Load(x + i);
      simd::Log1p(VecD::Select(VecD::Le(zero, v), v, -v)).Store(out + i);
    }
  }
  for (; i < n; ++i) out[i] = Log1pAbs(x[i]);
}

void YeoJohnson(const double* x, const double* logs, size_t n,
                double lambda, double* out) {
  size_t i = 0;
  if (SimdOn()) {
    // YeoJohnsonFromLog with the sign branch as a Select: each lane takes
    // lambda or 2 - lambda. The two log branches depend on lambda alone,
    // so they stay scalar branches outside the loop.
    const double two_minus = 2.0 - lambda;
    const bool log_pos = std::abs(lambda) < kLambdaEps;
    const bool log_neg = std::abs(two_minus) < kLambdaEps;
    const VecD zero = VecD::Zero();
    const VecD pos = VecD::Set1(lambda);
    const VecD neg = VecD::Set1(two_minus);
    for (; i + kLanes <= n; i += kLanes) {
      const VecD v = VecD::Load(x + i);
      const VecD log1p_abs = VecD::Load(logs + i);
      const auto nonneg = VecD::Le(zero, v);
      const VecD scale = VecD::Select(nonneg, pos, neg);
      const VecD e = simd::Expm1(scale * log1p_abs);
      VecD t = ClampFinite(VecD::Select(nonneg, e, -e) / scale);
      if (log_pos) t = VecD::Select(nonneg, log1p_abs, t);
      if (log_neg) t = VecD::Select(nonneg, t, -log1p_abs);
      t.Store(out + i);
    }
  }
  for (; i < n; ++i) out[i] = YeoJohnsonFromLog(x[i], logs[i], lambda);
}

void PowerTransformColumns(Matrix& data, const std::vector<double>& lambdas,
                           const std::vector<double>& means,
                           const std::vector<double>& stddevs,
                           bool standardize) {
  const size_t cols = data.cols();
  double* p = data.MutableRaw();
  ForRowBlocks(data.rows(), [&](size_t begin, size_t end) {
    PowerTransformRows(p, cols, begin, end, lambdas.data(), means.data(),
                       stddevs.data(), standardize);
  });
}

void QuantileTransformColumns(
    Matrix& data, const std::vector<std::vector<double>>& references,
    bool to_normal) {
  const size_t cols = data.cols();
  double* p = data.MutableRaw();
  ForRowBlocks(data.rows(), [&](size_t begin, size_t end) {
    QuantileTransformRows(p, cols, begin, end, references.data(), to_normal);
  });
}

void ColumnAbsMax(const Matrix& data, std::vector<double>* out) {
  const size_t cols = data.cols();
  out->assign(cols, 0.0);
  double* acc = out->data();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    const double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        const VecD abs_x = VecD::Load(row + c).Abs();
        const VecD a = VecD::Load(acc + c);
        VecD::Select(VecD::Gt(abs_x, a), abs_x, a).Store(acc + c);
      }
    }
    for (; c < cols; ++c) {
      const double abs_x = std::abs(row[c]);
      if (abs_x > acc[c]) acc[c] = abs_x;
    }
  }
}

void ColumnMinMax(const Matrix& data, std::vector<double>* mins,
                  std::vector<double>* maxs) {
  const size_t cols = data.cols();
  mins->assign(cols, std::numeric_limits<double>::infinity());
  maxs->assign(cols, -std::numeric_limits<double>::infinity());
  double* lo = mins->data();
  double* hi = maxs->data();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    const double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        const VecD x = VecD::Load(row + c);
        const VecD a = VecD::Load(lo + c);
        const VecD b = VecD::Load(hi + c);
        // Select on strict comparison (not a min/max instruction) so ties
        // keep the incumbent, exactly like the scalar update — the two
        // differ in which signed zero survives.
        VecD::Select(VecD::Gt(a, x), x, a).Store(lo + c);
        VecD::Select(VecD::Gt(x, b), x, b).Store(hi + c);
      }
    }
    for (; c < cols; ++c) {
      if (row[c] < lo[c]) lo[c] = row[c];
      if (row[c] > hi[c]) hi[c] = row[c];
    }
  }
}

void ColumnSums(const Matrix& data, std::vector<double>* out) {
  const size_t cols = data.cols();
  out->assign(cols, 0.0);
  double* acc = out->data();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    const double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        (VecD::Load(acc + c) + VecD::Load(row + c)).Store(acc + c);
      }
    }
    for (; c < cols; ++c) acc[c] += row[c];
  }
}

void ColumnSquaredDevSums(const Matrix& data,
                          const std::vector<double>& means,
                          std::vector<double>* out) {
  const size_t cols = data.cols();
  out->assign(cols, 0.0);
  double* acc = out->data();
  const bool simd_on = SimdOn();
  for (size_t r = 0; r < data.rows(); ++r) {
    const double* row = data.RowPtr(r);
    size_t c = 0;
    if (simd_on) {
      for (; c + kLanes <= cols; c += kLanes) {
        const VecD d = VecD::Load(row + c) - VecD::Load(means.data() + c);
        (VecD::Load(acc + c) + d * d).Store(acc + c);
      }
    }
    for (; c < cols; ++c) {
      const double d = row[c] - means[c];
      acc[c] += d * d;
    }
  }
}

}  // namespace kernels
}  // namespace autofp
