#include "preprocess/quantile_transformer.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace autofp {

void QuantileTransformer::Fit(const Matrix& data) {
  AUTOFP_CHECK_GT(data.rows(), 0u);
  effective_quantiles_ = std::min<int>(config_.n_quantiles,
                                       static_cast<int>(data.rows()));
  effective_quantiles_ = std::max(effective_quantiles_, 2);
  references_.assign(data.cols(), {});
  // Columns are independent: idle pool workers may take some of them.
  ThreadPool::HelpFor(data.cols(), [&](size_t c) {
    std::vector<double> column = data.Column(c);
    RadixSort(&column);
    std::vector<double>& refs = references_[c];
    refs.resize(effective_quantiles_);
    for (int q = 0; q < effective_quantiles_; ++q) {
      double p = static_cast<double>(q) /
                 static_cast<double>(effective_quantiles_ - 1);
      refs[q] = QuantileSorted(column, p);
    }
  });
  fitted_ = true;
}

void QuantileTransformer::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "QuantileTransformer::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), references_.size());
  kernels::QuantileTransformColumns(
      data, references_,
      config_.output_distribution == OutputDistribution::kNormal);
}

void QuantileTransformer::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WritePod<int32_t>(out, effective_quantiles_);
  WritePod<uint64_t>(out, references_.size());
  for (const std::vector<double>& column : references_) {
    WriteVec(out, column);
  }
}

Status QuantileTransformer::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("QuantileTransformer: malformed state blob");
  int32_t effective = 0;
  uint64_t columns = 0;
  if (!ReadPod(in, &effective) || effective < 2 || !ReadPod(in, &columns) ||
      columns > kMaxSerializedElements) {
    return malformed;
  }
  // Columns grow as their records arrive, so memory is bounded by the
  // bytes present, not by the declared count. Every column holds exactly
  // `effective` non-decreasing entries, as Fit and SaveState produce;
  // `!(a <= b)` also rejects NaN.
  std::vector<std::vector<double>> references;
  for (uint64_t c = 0; c < columns; ++c) {
    uint64_t count = 0;
    std::vector<double> column;
    if (!ReadPod(in, &count) || count != static_cast<uint64_t>(effective) ||
        !ReadElements<double>(in, count, &column)) {
      return malformed;
    }
    for (size_t i = 1; i < column.size(); ++i) {
      if (!(column[i - 1] <= column[i])) return malformed;
    }
    references.push_back(std::move(column));
  }
  references_ = std::move(references);
  effective_quantiles_ = effective;
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
