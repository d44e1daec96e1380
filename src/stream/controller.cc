#include "stream/controller.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace autofp {

StreamController::StreamController(ArtifactRegistry* registry,
                                   StreamConfig config)
    : registry_(registry),
      config_(std::move(config)),
      researcher_(registry, config_.research) {
  AUTOFP_CHECK(registry_ != nullptr);
}

void StreamController::RebuildForPredictor(const Predictor& predictor) {
  baseline_owner_ = &predictor;
  num_classes_ = predictor.schema().num_classes;
  const ReferenceStats& reference = predictor.reference_stats();
  if (reference.empty()) {
    // Pre-v2 artifacts carry no baseline; drift monitoring stays off
    // until a stats-bearing artifact is swapped in.
    monitor_.reset();
  } else {
    monitor_.emplace(reference, config_.drift);
  }
  reservoir_ = std::make_unique<ReservoirSampler>(
      config_.reservoir_rows, predictor.schema().input_cols, config_.seed);
}

void StreamController::OnBatchScored(const Matrix& rows,
                                     const std::vector<int>& predictions,
                                     const Predictor& predictor) {
  AUTOFP_CHECK_EQ(rows.rows(), predictions.size());
  const bool stale = registry_->Acquire().get() != &predictor;
  Dataset snapshot;
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stale) {
      ++counters_.stale_batches;
      return;
    }
    if (baseline_owner_ != &predictor) {
      if (baseline_owner_ != nullptr) ++counters_.baseline_resets;
      RebuildForPredictor(predictor);
    }
    counters_.rows_observed += static_cast<long>(rows.rows());
    for (size_t r = 0; r < rows.rows(); ++r) {
      reservoir_->ObserveRow(rows.RowPtr(r), rows.cols(), predictions[r]);
    }
    if (monitor_.has_value()) {
      // A micro-batch can close several windows; each is counted, and the
      // first triggering one takes the batch's single research snapshot.
      for (const DriftReport& report : monitor_->ObserveBatch(rows)) {
        ++counters_.windows_compared;
        counters_.zero_variance_skips +=
            static_cast<long>(report.skipped_zero_variance);
        if (!report.triggered) continue;
        ++counters_.drift_triggers;
        std::fprintf(stderr,
                     "drift: window of %llu rows triggered "
                     "(%zu/%zu columns over threshold, max statistic "
                     "%.3f, %zu zero-variance skips)\n",
                     static_cast<unsigned long long>(report.window_rows),
                     report.drifted_columns, report.columns.size(),
                     report.max_statistic, report.skipped_zero_variance);
        if (!trigger) {
          trigger = true;
          snapshot = reservoir_->Snapshot("drift-snapshot", num_classes_);
        }
      }
    }
  }
  // Hand off outside the lock: TriggerAsync may join a finished worker.
  // The researcher counts the trigger as accepted or dropped.
  if (trigger) researcher_.TriggerAsync(std::move(snapshot), predictor);
}

StreamCounters StreamController::counters() const {
  StreamCounters out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = counters_;
  }
  const BackgroundResearcher::Counters research = researcher_.counters();
  out.research_started = research.triggers_accepted;
  out.research_dropped = research.triggers_dropped;
  out.research_succeeded = research.runs_succeeded;
  out.research_failed = research.runs_failed;
  return out;
}

std::string StreamController::CountersJson() const {
  const StreamCounters c = counters();
  std::ostringstream out;
  out << "\"stream_rows_observed\":" << c.rows_observed
      << ",\"stream_windows_compared\":" << c.windows_compared
      << ",\"drift_triggers\":" << c.drift_triggers
      << ",\"drift_zero_variance_skips\":" << c.zero_variance_skips
      << ",\"research_started\":" << c.research_started
      << ",\"research_dropped\":" << c.research_dropped
      << ",\"research_succeeded\":" << c.research_succeeded
      << ",\"research_failed\":" << c.research_failed
      << ",\"baseline_resets\":" << c.baseline_resets
      << ",\"stream_stale_batches\":" << c.stale_batches;
  return out.str();
}

}  // namespace autofp
