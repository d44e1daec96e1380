#include "preprocess/standard_scaler.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

#include <cmath>

namespace autofp {

void StandardScaler::Fit(const Matrix& data) {
  AUTOFP_CHECK_GT(data.rows(), 0u);
  const size_t cols = data.cols();
  const double n = static_cast<double>(data.rows());
  kernels::ColumnSums(data, &means_);
  for (size_t c = 0; c < cols; ++c) means_[c] /= n;
  kernels::ColumnSquaredDevSums(data, means_, &stddevs_);
  for (size_t c = 0; c < cols; ++c) {
    stddevs_[c] = std::sqrt(stddevs_[c] / n);
    if (stddevs_[c] == 0.0) stddevs_[c] = 1.0;
  }
  fitted_ = true;
}

void StandardScaler::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "StandardScaler::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), means_.size());
  // x - 0.0 == x bit-for-bit in round-to-nearest, so the no-centering
  // config is a pure column scale.
  if (config_.with_mean) {
    kernels::ShiftScaleColumns(data, means_, stddevs_);
  } else {
    kernels::ScaleColumns(data, stddevs_);
  }
}

void StandardScaler::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WriteVec(out, means_);
  WriteVec(out, stddevs_);
}

Status StandardScaler::LoadState(std::istream& in) {
  if (!ReadVec(in, &means_) || !ReadVec(in, &stddevs_) ||
      means_.size() != stddevs_.size()) {
    return Status::InvalidArgument("StandardScaler: malformed state blob");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
