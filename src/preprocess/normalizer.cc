#include "preprocess/normalizer.h"

#include "preprocess/kernels.h"

namespace autofp {

void Normalizer::TransformInPlace(Matrix& data) const {
  // Row-wise by definition: the norm is a per-sample reduction, kept
  // scalar so its summation order (and the output) is fixed on every
  // backend.
  kernels::NormalizeRows(data, config_.norm);
}

}  // namespace autofp
