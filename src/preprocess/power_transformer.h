#ifndef AUTOFP_PREPROCESS_POWER_TRANSFORMER_H_
#define AUTOFP_PREPROCESS_POWER_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "preprocess/preprocessor.h"

namespace autofp {

/// Yeo-Johnson power transform (Equation 1 in the paper). For each feature
/// the exponent lambda is chosen at fit time by maximizing the Yeo-Johnson
/// log-likelihood (golden-section search), then, if `standardize` (the
/// scikit-learn default), the transformed feature is shifted/scaled to zero
/// mean and unit variance using training statistics.
class PowerTransformer : public Preprocessor {
 public:
  explicit PowerTransformer(const PreprocessorConfig& config)
      : config_(config) {
    AUTOFP_CHECK(config.kind == PreprocessorKind::kPowerTransformer);
  }

  const PreprocessorConfig& config() const override { return config_; }
  void Fit(const Matrix& data) override;
  void TransformInPlace(Matrix& data) const override;
  std::unique_ptr<Preprocessor> Clone() const override {
    return std::make_unique<PowerTransformer>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  const std::vector<double>& lambdas() const { return lambdas_; }

  /// The Yeo-Johnson transform of a single value (exposed for tests).
  static double YeoJohnson(double x, double lambda);

 private:
  PreprocessorConfig config_;
  std::vector<double> lambdas_;
  std::vector<double> means_;    ///< post-transform means (standardize).
  std::vector<double> stddevs_;  ///< post-transform stddevs (standardize).
  bool fitted_ = false;
};

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_POWER_TRANSFORMER_H_
