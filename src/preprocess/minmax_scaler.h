#ifndef AUTOFP_PREPROCESS_MINMAX_SCALER_H_
#define AUTOFP_PREPROCESS_MINMAX_SCALER_H_

#include <memory>
#include <vector>

#include "preprocess/preprocessor.h"

namespace autofp {

/// Rescales each feature to [0, 1] using the min/max seen at fit time:
/// x -> (x - min) / (max - min). Constant columns map to 0 (scale = 1),
/// matching scikit-learn's handling of zero ranges.
class MinMaxScaler : public Preprocessor {
 public:
  explicit MinMaxScaler(const PreprocessorConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == PreprocessorKind::kMinMaxScaler);
  }

  const PreprocessorConfig& config() const override { return config_; }
  void Fit(const Matrix& data) override;
  void TransformInPlace(Matrix& data) const override;
  std::unique_ptr<Preprocessor> Clone() const override {
    return std::make_unique<MinMaxScaler>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

 private:
  PreprocessorConfig config_;
  std::vector<double> mins_;
  std::vector<double> ranges_;  ///< max - min, or 1 when max == min.
  bool fitted_ = false;
};

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_MINMAX_SCALER_H_
