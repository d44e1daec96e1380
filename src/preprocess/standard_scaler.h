#ifndef AUTOFP_PREPROCESS_STANDARD_SCALER_H_
#define AUTOFP_PREPROCESS_STANDARD_SCALER_H_

#include <memory>
#include <vector>

#include "preprocess/preprocessor.h"

namespace autofp {

/// Standardizes each feature: x -> (x - mean) / stddev. Columns with zero
/// standard deviation are only centered (scale = 1), matching scikit-learn.
/// With `with_mean = false` (Table 6 extended space) only the scaling is
/// applied.
class StandardScaler : public Preprocessor {
 public:
  explicit StandardScaler(const PreprocessorConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == PreprocessorKind::kStandardScaler);
  }

  const PreprocessorConfig& config() const override { return config_; }
  void Fit(const Matrix& data) override;
  void TransformInPlace(Matrix& data) const override;
  std::unique_ptr<Preprocessor> Clone() const override {
    return std::make_unique<StandardScaler>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

 private:
  PreprocessorConfig config_;
  std::vector<double> means_;
  std::vector<double> stddevs_;
  bool fitted_ = false;
};

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_STANDARD_SCALER_H_
