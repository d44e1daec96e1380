#ifndef AUTOFP_PREPROCESS_QUANTILE_TRANSFORMER_H_
#define AUTOFP_PREPROCESS_QUANTILE_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "preprocess/preprocessor.h"

namespace autofp {

/// Maps each feature through its empirical CDF, producing a uniform(0,1)
/// output (default) or, via the normal inverse CDF, a standard-normal
/// output. `n_quantiles` reference quantiles are estimated at fit time
/// (capped at the number of training rows, as in scikit-learn); transform
/// interpolates linearly between references and clips outside the training
/// range.
class QuantileTransformer : public Preprocessor {
 public:
  explicit QuantileTransformer(const PreprocessorConfig& config)
      : config_(config) {
    AUTOFP_CHECK(config.kind == PreprocessorKind::kQuantileTransformer);
    AUTOFP_CHECK_GE(config.n_quantiles, 2);
  }

  const PreprocessorConfig& config() const override { return config_; }
  void Fit(const Matrix& data) override;
  void TransformInPlace(Matrix& data) const override;
  std::unique_ptr<Preprocessor> Clone() const override {
    return std::make_unique<QuantileTransformer>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// Number of reference quantiles actually used after row-count capping.
  int effective_quantiles() const { return effective_quantiles_; }

 private:
  PreprocessorConfig config_;
  int effective_quantiles_ = 0;
  /// references_[c] holds the ascending reference quantiles of column c.
  std::vector<std::vector<double>> references_;
  bool fitted_ = false;
};

}  // namespace autofp

#endif  // AUTOFP_PREPROCESS_QUANTILE_TRANSFORMER_H_
