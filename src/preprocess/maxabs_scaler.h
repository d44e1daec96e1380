#ifndef AUTOFP_PREPROCESS_MAXABS_SCALER_H_
#define AUTOFP_PREPROCESS_MAXABS_SCALER_H_

#include <memory>
#include <vector>

#include "preprocess/preprocessor.h"

namespace autofp {

/// Scales each feature by its maximum absolute value seen at fit time, so
/// training values land in [-1, 1]. Columns that are all-zero are left
/// unscaled (scale = 1), matching scikit-learn.
class MaxAbsScaler : public Preprocessor {
 public:
  explicit MaxAbsScaler(const PreprocessorConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == PreprocessorKind::kMaxAbsScaler);
  }

  const PreprocessorConfig& config() const override { return config_; }
  void Fit(const Matrix& data) override;
  void TransformInPlace(Matrix& data) const override;
  std::unique_ptr<Preprocessor> Clone() const override {
    return std::make_unique<MaxAbsScaler>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  const std::vector<double>& scales() const { return scales_; }

 private:
  PreprocessorConfig config_;
  std::vector<double> scales_;
  bool fitted_ = false;
};

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_MAXABS_SCALER_H_
