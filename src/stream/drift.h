#ifndef AUTOFP_STREAM_DRIFT_H_
#define AUTOFP_STREAM_DRIFT_H_

/// Windowed drift detection against an artifact's reference stats (see
/// DESIGN.md "Streaming and drift"). The monitor accumulates serving
/// rows into a ReferenceStats window (the same Welford loop that stamped
/// the artifact's baseline); every full window is compared per-column
/// against the ReferenceStats the artifact was exported with:
///
///   statistic(c) = max(|mu_w - mu_0| / sigma_0, |sigma_w - sigma_0| / sigma_0)
///
/// i.e. how many reference standard deviations the window's mean has
/// moved, or the spread has changed by — whichever is larger. A column
/// whose reference is constant (sigma_0 == 0) cannot be scored this way;
/// it is recorded as a typed skip, never divided by. The report triggers
/// when at least `min_columns` columns exceed `threshold`.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/artifact.h"
#include "util/matrix.h"

namespace autofp {

struct DriftConfig {
  /// Rows per comparison window; a report is produced (and the window
  /// reset) each time this many rows have been observed.
  size_t window_rows = 512;
  /// Per-column trigger threshold in reference standard deviations.
  double threshold = 0.5;
  /// Columns that must exceed the threshold for the report to trigger.
  size_t min_columns = 1;
};

/// Why a column did or did not contribute to the trigger decision.
enum class ColumnDriftState : int {
  kOk = 0,       ///< scored, below threshold.
  kDrifted,      ///< scored, at or above threshold.
  /// Reference variance is zero (constant column at export time): the
  /// statistic is undefined, so the column is skipped — a typed outcome,
  /// not a division by zero.
  kSkippedZeroVariance,
};

struct ColumnDrift {
  size_t column = 0;
  /// The drift statistic; 0 for skipped columns.
  double statistic = 0.0;
  ColumnDriftState state = ColumnDriftState::kOk;
};

/// One window's verdict. `columns` always has one entry per feature
/// column, in column order.
struct DriftReport {
  bool triggered = false;
  uint64_t window_rows = 0;
  std::vector<ColumnDrift> columns;
  size_t drifted_columns = 0;
  size_t skipped_zero_variance = 0;
  double max_statistic = 0.0;
};

/// Accumulates rows and emits one DriftReport per full window. Not
/// thread-safe (the serve batch thread is the single producer).
class DriftMonitor {
 public:
  /// `reference` must be non-empty; its column count fixes the monitor's.
  DriftMonitor(ReferenceStats reference, DriftConfig config);

  /// Feeds a scored batch. Returns one report per window the batch
  /// completed, in window order (several when a batch spans several
  /// windows; empty while the window is still filling).
  std::vector<DriftReport> ObserveBatch(const Matrix& rows);

  /// Drops the partial window (used after a swap installs a new baseline).
  void ResetWindow() { window_.Reset(reference_.cols()); }

  const ReferenceStats& reference() const { return reference_; }
  const DriftConfig& config() const { return config_; }
  uint64_t rows_in_window() const { return window_.rows; }

  /// Scores the current window against the reference without waiting for
  /// it to fill (used by tests and the final flush).
  DriftReport Compare() const;

 private:
  ReferenceStats reference_;
  /// Reference stddev per column, precomputed once.
  std::vector<double> reference_stddev_;
  DriftConfig config_;
  ReferenceStats window_;
};

}  // namespace autofp

#endif  // AUTOFP_STREAM_DRIFT_H_
