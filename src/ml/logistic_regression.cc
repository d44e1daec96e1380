#include "ml/logistic_regression.h"

#include "util/serialize.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#include <algorithm>
#include <cmath>

namespace autofp {

namespace {

/// Rows per HelpFor index in an epoch's forward phase: enough work per
/// block (~20 us at 8 features) to pay for a helper's queue round trip.
constexpr size_t kForwardBlockRows = 512;

}  // namespace

void LogisticRegression::ForwardRows(const Matrix& features,
                                     const std::vector<int>& labels,
                                     const double* weights, int num_classes,
                                     size_t begin, size_t end,
                                     double* residuals) {
  const size_t d = features.cols();
  const size_t stride = d + 1;
  const double inv_n = 1.0 / static_cast<double>(features.rows());
  for (size_t r = begin; r < end; ++r) {
    const double* row = features.RowPtr(r);
    // The row's slot holds its logits, then its exps, then its residuals.
    double* slot = residuals + r * num_classes;
    double max_logit = -1e300;
    for (int k = 0; k < num_classes; ++k) {
      const double* w = weights + k * stride;
      const double sum = w[d] + simd::Dot(w, row, d);
      slot[k] = sum;
      if (sum > max_logit) max_logit = sum;
    }
    double denom = 0.0;
    for (int k = 0; k < num_classes; ++k) {
      // exp(0) is exactly 1: the max logit's class skips the call.
      const double z = slot[k] - max_logit;
      slot[k] = z == 0.0 ? 1.0 : std::exp(std::clamp(z, -500.0, 0.0));
      denom += slot[k];
    }
    for (int k = 0; k < num_classes; ++k) {
      double residual = slot[k] / denom - (labels[r] == k ? 1.0 : 0.0);
      residual *= inv_n;
      slot[k] = residual;
    }
  }
}

void LogisticRegression::AccumulateGradient(const Matrix& features,
                                            const double* residuals,
                                            int num_classes, double* grad) {
  const size_t d = features.cols();
  const size_t stride = d + 1;
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.RowPtr(r);
    const double* slot = residuals + r * num_classes;
    for (int k = 0; k < num_classes; ++k) {
      const double residual = slot[k];
      if (residual == 0.0) continue;
      double* g = grad + k * stride;
      simd::Axpy(residual, row, g, d);
      g[d] += residual;
    }
  }
}

void LogisticRegression::Train(const Matrix& features,
                               const std::vector<int>& labels,
                               int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GE(num_classes, 2);
  num_classes_ = num_classes;
  num_features_ = features.cols();
  const size_t d = num_features_;
  const size_t n = features.rows();
  const size_t stride = d + 1;
  Param params;
  params.Resize(static_cast<size_t>(num_classes) * stride);

  AdamConfig adam;
  adam.learning_rate = config_.lr_step;
  std::vector<double> residuals(n * num_classes);
  const size_t blocks = (n + kForwardBlockRows - 1) / kForwardBlockRows;
  for (int epoch = 0; epoch < config_.lr_epochs; ++epoch) {
    // Rows are independent, so idle pool workers may take blocks of them.
    ThreadPool::HelpFor(blocks, [&](size_t block) {
      ForwardRows(features, labels, params.value.data(), num_classes,
                  block * kForwardBlockRows,
                  std::min(n, (block + 1) * kForwardBlockRows),
                  residuals.data());
    });
    // The gradient is summed on the caller in row order, so every element
    // adds up in the same order whether or not helpers ran.
    params.ZeroGrad();
    AccumulateGradient(features, residuals.data(), num_classes,
                       params.grad.data());
    // L2 regularization on weights (not intercepts).
    if (config_.lr_l2 > 0.0) {
      for (int k = 0; k < num_classes; ++k) {
        double* g = params.grad.data() + k * stride;
        const double* w = params.value.data() + k * stride;
        simd::Axpy(config_.lr_l2, w, g, d);
      }
    }
    params.AdamStep(adam, epoch + 1);
  }
  weights_ = std::move(params.value);
}

std::vector<double> LogisticRegression::DecisionFunction(const double* row,
                                                         size_t cols) const {
  AUTOFP_CHECK_EQ(cols, num_features_);
  AUTOFP_CHECK_GT(num_classes_, 0) << "Predict before Train";
  const size_t stride = num_features_ + 1;
  std::vector<double> scores(num_classes_);
  for (int k = 0; k < num_classes_; ++k) {
    const double* w = weights_.data() + k * stride;
    scores[k] = w[num_features_] + simd::Dot(w, row, num_features_);
  }
  return scores;
}

int LogisticRegression::Predict(const double* row, size_t cols) const {
  std::vector<double> scores = DecisionFunction(row, cols);
  return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                          scores.begin());
}

void LogisticRegression::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!weights_.empty()) << "SaveState before Train";
  WritePod<int32_t>(out, num_classes_);
  WritePod<uint64_t>(out, num_features_);
  WriteVec(out, weights_);
}

Status LogisticRegression::LoadState(std::istream& in) {
  int32_t classes = 0;
  uint64_t features = 0;
  std::vector<double> weights;
  if (!ReadPod(in, &classes) || classes < 2 || !ReadPod(in, &features) ||
      !ReadVec(in, &weights) ||
      weights.size() != static_cast<size_t>(classes) * (features + 1)) {
    return Status::InvalidArgument("LogisticRegression: malformed state blob");
  }
  num_classes_ = classes;
  num_features_ = features;
  weights_ = std::move(weights);
  return Status::OK();
}

}  // namespace autofp
