#include "preprocess/maxabs_scaler.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

namespace autofp {

void MaxAbsScaler::Fit(const Matrix& data) {
  kernels::ColumnAbsMax(data, &scales_);
  for (double& scale : scales_) {
    if (scale == 0.0) scale = 1.0;
  }
  fitted_ = true;
}

void MaxAbsScaler::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "MaxAbsScaler::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), scales_.size());
  kernels::ScaleColumns(data, scales_);
}

void MaxAbsScaler::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WriteVec(out, scales_);
}

Status MaxAbsScaler::LoadState(std::istream& in) {
  if (!ReadVec(in, &scales_)) {
    return Status::InvalidArgument("MaxAbsScaler: malformed state blob");
  }
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
