#ifndef AUTOFP_ML_LOGISTIC_REGRESSION_H_
#define AUTOFP_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/model.h"
#include "nn/param.h"

namespace autofp {

/// Multinomial (softmax) logistic regression with L2 regularization,
/// trained by full-batch Adam. Like scikit-learn's LogisticRegression it is
/// a linear model and therefore sensitive to feature scale — the property
/// the paper's feature-preprocessing study turns on.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(const ModelConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == ModelKind::kLogisticRegression);
  }

  void Train(const Matrix& features, const std::vector<int>& labels,
             int num_classes) override;
  int Predict(const double* row, size_t cols) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LogisticRegression>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// Per-class decision scores for one row (exposed for tests).
  std::vector<double> DecisionFunction(const double* row, size_t cols) const;

  /// The two phases of one training epoch (public for the model roofline
  /// bench). ForwardRows writes the softmax residuals of rows [begin, end),
  /// scaled by 1/n, to residuals[r * num_classes + k] under `weights`
  /// (the layout of weights_). Rows are independent.
  static void ForwardRows(const Matrix& features,
                          const std::vector<int>& labels,
                          const double* weights, int num_classes,
                          size_t begin, size_t end, double* residuals);
  /// Adds every row's residuals times the row (and the residuals to the
  /// intercepts) into `grad`, in row order.
  static void AccumulateGradient(const Matrix& features,
                                 const double* residuals, int num_classes,
                                 double* grad);

 private:
  ModelConfig config_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  /// weights_[k * (d+1) + j]: weight of feature j for class k; index d is
  /// the intercept.
  std::vector<double> weights_;
};

}  // namespace autofp

#endif  // AUTOFP_ML_LOGISTIC_REGRESSION_H_
