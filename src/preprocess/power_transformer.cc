#include "preprocess/power_transformer.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

#include <cmath>
#include <limits>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace autofp {

namespace {

/// Golden-section maximization of f over [lo, hi].
template <typename F>
double GoldenSectionMaximize(F f, double lo, double hi, int iterations) {
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int i = 0; i < iterations; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    }
  }
  return (a + b) / 2.0;
}

}  // namespace

double PowerTransformer::YeoJohnson(double x, double lambda) {
  return kernels::YeoJohnsonFromLog(x, kernels::Log1pAbs(x), lambda);
}

void PowerTransformer::Fit(const Matrix& data) {
  AUTOFP_CHECK_GT(data.rows(), 0u);
  const size_t cols = data.cols();
  lambdas_.assign(cols, 1.0);
  means_.assign(cols, 0.0);
  stddevs_.assign(cols, 1.0);
  // Columns are independent: idle pool workers may take some of them.
  ThreadPool::HelpFor(cols, [&](size_t c) {
    std::vector<double> column = data.Column(c);
    // Constant columns: identity lambda, no standardization scaling.
    if (!(Variance(column) > 0.0)) {
      means_[c] = config_.standardize ? YeoJohnson(column[0], 1.0) : 0.0;
      return;
    }
    const size_t rows = column.size();
    std::vector<double> logs(rows);
    std::vector<double> t(rows);
    kernels::Log1pAbs(column.data(), rows, logs.data());
    // The Jacobian term sums sign(x) * log(|x|+1) over the column.
    double jacobian = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      jacobian += std::copysign(logs[i], column[i]);
    }
    // Yeo-Johnson log-likelihood of lambda, from a one-pass variance: the
    // transform runs down the column in vector lanes, then the sums add
    // it up in row order.
    auto log_likelihood = [&](double lambda) {
      const double n = static_cast<double>(rows);
      kernels::YeoJohnson(column.data(), logs.data(), rows, lambda, t.data());
      double sum = 0.0, sum_sq = 0.0;
      for (size_t i = 0; i < rows; ++i) {
        sum += t[i];
        sum_sq += t[i] * t[i];
      }
      double variance = sum_sq / n - (sum / n) * (sum / n);
      if (!(variance > 0.0) || !std::isfinite(variance)) {
        return -std::numeric_limits<double>::infinity();
      }
      return -0.5 * n * std::log(variance) + (lambda - 1.0) * jacobian;
    };
    lambdas_[c] = GoldenSectionMaximize(log_likelihood, -4.0, 6.0, 30);
    if (config_.standardize) {
      kernels::YeoJohnson(column.data(), logs.data(), rows, lambdas_[c],
                          column.data());
      MeanStd stats = ComputeMeanStd(column);
      means_[c] = stats.mean;
      stddevs_[c] = stats.stddev > 0.0 ? stats.stddev : 1.0;
    }
  });
  fitted_ = true;
}

void PowerTransformer::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "PowerTransformer::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), lambdas_.size());
  kernels::PowerTransformColumns(data, lambdas_, means_, stddevs_,
                                 config_.standardize);
}

void PowerTransformer::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WriteVec(out, lambdas_);
  WriteVec(out, means_);
  WriteVec(out, stddevs_);
}

Status PowerTransformer::LoadState(std::istream& in) {
  if (!ReadVec(in, &lambdas_) || !ReadVec(in, &means_) ||
      !ReadVec(in, &stddevs_) || means_.size() != stddevs_.size() ||
      (config_.standardize && means_.size() != lambdas_.size())) {
    return Status::InvalidArgument("PowerTransformer: malformed state blob");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
