#ifndef AUTOFP_PREPROCESS_KERNELS_H_
#define AUTOFP_PREPROCESS_KERNELS_H_

/// Vectorized inner loops for the seven preprocessors, over row-major
/// matrices. The vectorized kernels walk the rows (Binarize, being
/// elementwise, the flat storage) and dispatch on
/// simd::ForceScalarEnabled():
///
///   - SIMD: vectorize ACROSS COLUMNS within each row, with the
///     per-column parameter arrays loaded as vectors. Contiguous loads,
///     exact per element; the last cols % lanes columns run scalar.
///   - forced scalar: the same row loop with every column scalar. This
///     is the reference the property tests compare the SIMD path against
///     bit for bit.
///
/// Power and Quantile split the rows into blocks of at least 1024 and run
/// them through ThreadPool::HelpFor, so on a pool worker idle workers
/// take some blocks; a matrix of fewer than 2048 rows is one block. Each
/// block walks one column at a time: Power's element function vectorizes
/// down the column (lanes are rows), and Quantile is scalar on every path
/// and keeps the column's reference table hot for the block's pass.
///
/// Exactness: every transform kernel here is bit-identical across
/// backends (see util/simd.h's contract) because each element is
/// produced by the same sequence of correctly-rounded IEEE ops and
/// per-column/per-row accumulation order is preserved. The fit reductions
/// (ColumnSums etc.) accumulate each column in row-ascending order on
/// every path for the same reason. Yeo-Johnson's log1p/expm1 are
/// util/simd_math.h's, whose lanes equal their scalar forms, so Power is
/// exact on every path too and does not depend on libm. The normal
/// inverse CDF and the quantile table walk stay scalar on every path.

#include <cstddef>
#include <vector>

#include "preprocess/preprocessor.h"
#include "util/matrix.h"

namespace autofp {
namespace kernels {

/// value > threshold ? 1.0 : 0.0, elementwise over the whole storage.
void Binarize(Matrix& data, double threshold);

/// data(r, c) /= scales[c].
void ScaleColumns(Matrix& data, const std::vector<double>& scales);

/// data(r, c) = (data(r, c) - shifts[c]) / scales[c].
void ShiftScaleColumns(Matrix& data, const std::vector<double>& shifts,
                       const std::vector<double>& scales);

/// Divides each row by its L1/L2/max norm (zero norms divide by 1).
void NormalizeRows(Matrix& data, NormKind kind);

/// log1p(|x|) as Yeo-Johnson takes it: -0.0 keeps its sign.
double Log1pAbs(double x);

/// Yeo-Johnson of x given log1p_abs = Log1pAbs(x), which does not depend
/// on lambda: the scalar form every path reproduces. NaN results clamp to
/// 0 and the rest to +-1e100, except the two log branches (lambda 0 for
/// x >= 0, lambda 2 for x < 0), which return +-log1p_abs as is.
double YeoJohnsonFromLog(double x, double log1p_abs, double lambda);

/// out[i] = Log1pAbs(x[i]).
void Log1pAbs(const double* x, size_t n, double* out);

/// out[i] = YeoJohnsonFromLog(x[i], logs[i], lambda): one likelihood trial
/// of a Power fit down a column. `out` may alias `x` or `logs`.
void YeoJohnson(const double* x, const double* logs, size_t n,
                double lambda, double* out);

/// Least rows per ThreadPool::HelpFor index of PowerTransformColumns and
/// QuantileTransformColumns: a matrix of n rows is max(1, n / 1024)
/// blocks, the last one taking the remainder.
inline constexpr size_t kTransformBlockRows = 1024;

/// Yeo-Johnson per column, optionally standardized:
/// data(r, c) = ClampFinite((YJ(x, lambdas[c]) - means[c]) / stddevs[c]).
void PowerTransformColumns(Matrix& data, const std::vector<double>& lambdas,
                           const std::vector<double>& means,
                           const std::vector<double>& stddevs,
                           bool standardize);

/// Maps each value through its column's empirical CDF (piecewise-linear
/// over `references[c]`, a sorted table of >= 2 entries), optionally
/// through the normal inverse CDF. The table walk is the branchless
/// simd::UpperBoundIndex. A NaN value maps to NaN in both outputs.
void QuantileTransformColumns(
    Matrix& data, const std::vector<std::vector<double>>& references,
    bool to_normal);

/// Fit reductions. All accumulate per column in row-ascending order on
/// every path, so fitted parameters are bit-identical across backends. Output vectors are assigned (not accumulated into).
void ColumnAbsMax(const Matrix& data, std::vector<double>* out);
void ColumnMinMax(const Matrix& data, std::vector<double>* mins,
                  std::vector<double>* maxs);
void ColumnSums(const Matrix& data, std::vector<double>* out);
void ColumnSquaredDevSums(const Matrix& data,
                          const std::vector<double>& means,
                          std::vector<double>* out);

}  // namespace kernels
}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_KERNELS_H_
