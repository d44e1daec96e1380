#include "stream/drift.h"

#include <cmath>
#include <utility>

#include "util/logging.h"

namespace autofp {

DriftMonitor::DriftMonitor(ReferenceStats reference, DriftConfig config)
    : reference_(std::move(reference)), config_(config) {
  AUTOFP_CHECK(!reference_.empty())
      << "DriftMonitor needs a non-empty reference baseline";
  AUTOFP_CHECK_GT(config_.window_rows, 0u);
  reference_stddev_.resize(reference_.cols());
  for (size_t c = 0; c < reference_.cols(); ++c) {
    reference_stddev_[c] = std::sqrt(reference_.Variance(c));
  }
  window_.Reset(reference_.cols());
}

DriftReport DriftMonitor::Compare() const {
  DriftReport report;
  report.window_rows = window_.rows;
  report.columns.resize(reference_.cols());
  for (size_t c = 0; c < reference_.cols(); ++c) {
    ColumnDrift& column = report.columns[c];
    column.column = c;
    const double sigma0 = reference_stddev_[c];
    if (!(sigma0 > 0.0)) {
      column.state = ColumnDriftState::kSkippedZeroVariance;
      ++report.skipped_zero_variance;
      continue;
    }
    const double mean_shift =
        std::fabs(window_.mean[c] - reference_.mean[c]) / sigma0;
    const double scale_shift =
        std::fabs(std::sqrt(window_.Variance(c)) - sigma0) / sigma0;
    column.statistic = std::max(mean_shift, scale_shift);
    if (column.statistic > report.max_statistic) {
      report.max_statistic = column.statistic;
    }
    if (column.statistic >= config_.threshold) {
      column.state = ColumnDriftState::kDrifted;
      ++report.drifted_columns;
    }
  }
  report.triggered = report.drifted_columns >= config_.min_columns;
  return report;
}

std::vector<DriftReport> DriftMonitor::ObserveBatch(const Matrix& rows) {
  std::vector<DriftReport> reports;
  if (rows.rows() == 0) return reports;
  AUTOFP_CHECK_EQ(rows.cols(), reference_.cols());
  for (size_t r = 0; r < rows.rows(); ++r) {
    window_.ObserveRow(rows.RowPtr(r), rows.cols());
    if (window_.rows >= config_.window_rows) {
      reports.push_back(Compare());
      ResetWindow();
    }
  }
  return reports;
}

}  // namespace autofp
