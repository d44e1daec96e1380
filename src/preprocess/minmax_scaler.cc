#include "preprocess/minmax_scaler.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

#include <limits>

namespace autofp {

void MinMaxScaler::Fit(const Matrix& data) {
  AUTOFP_CHECK_GT(data.rows(), 0u);
  std::vector<double> maxs;
  kernels::ColumnMinMax(data, &mins_, &maxs);
  ranges_.resize(data.cols());
  for (size_t c = 0; c < data.cols(); ++c) {
    double range = maxs[c] - mins_[c];
    ranges_[c] = range == 0.0 ? 1.0 : range;
  }
  fitted_ = true;
}

void MinMaxScaler::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "MinMaxScaler::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), mins_.size());
  kernels::ShiftScaleColumns(data, mins_, ranges_);
}

void MinMaxScaler::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WriteVec(out, mins_);
  WriteVec(out, ranges_);
}

Status MinMaxScaler::LoadState(std::istream& in) {
  if (!ReadVec(in, &mins_) || !ReadVec(in, &ranges_) ||
      mins_.size() != ranges_.size()) {
    return Status::InvalidArgument("MinMaxScaler: malformed state blob");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
