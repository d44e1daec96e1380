#ifndef AUTOFP_STREAM_CONTROLLER_H_
#define AUTOFP_STREAM_CONTROLLER_H_

/// The streaming control loop (see DESIGN.md "Streaming and drift"):
/// one object wired into the serve batch thread as a ServeBatchObserver.
/// Per scored micro-batch it (1) feeds every row into a uniform
/// reservoir sample, pseudo-labeled with the live predictions, and
/// (2) feeds the rows into the drift monitor built from the live
/// artifact's reference stats. When a window triggers, the reservoir is
/// snapshotted and handed to the BackgroundResearcher, which re-searches
/// on a low-priority thread and hot-swaps the winner. A swap (observed
/// as a predictor identity change) rebuilds the monitor around the new
/// baseline and resets the window, so the new artifact is judged only
/// against its own export stats. A batch scored by a predictor that is no
/// longer live (acquired before a swap, observed after it) is counted and
/// dropped: it would feed the old baseline's window and could trigger a
/// second re-search for drift the swap already answered.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/server.h"
#include "stream/drift.h"
#include "stream/research.h"
#include "stream/reservoir.h"

namespace autofp {

struct StreamConfig {
  DriftConfig drift;
  ResearchConfig research;
  /// Reservoir capacity (rows retained for the re-search snapshot).
  size_t reservoir_rows = 2048;
  /// Seed for the reservoir's replacement draws.
  uint64_t seed = 42;
};

/// Monotonic counters over the controller's lifetime (all producer-side,
/// read via CountersJson/counters from any thread). The research_* fields
/// are the BackgroundResearcher's own counters, so each event is counted
/// once.
struct StreamCounters {
  long rows_observed = 0;
  long windows_compared = 0;   ///< full windows scored against the baseline.
  long drift_triggers = 0;     ///< windows whose report triggered.
  long zero_variance_skips = 0;  ///< column skips summed over all windows.
  long research_started = 0;
  long research_dropped = 0;   ///< triggers refused because a run was busy.
  long research_succeeded = 0;
  long research_failed = 0;
  long baseline_resets = 0;    ///< monitor rebuilds after a swap.
  /// Batches dropped because the predictor that scored them is no longer
  /// the registry's live one.
  long stale_batches = 0;
};

class StreamController : public ServeBatchObserver {
 public:
  /// `registry` must outlive the controller (shared with the server).
  StreamController(ArtifactRegistry* registry, StreamConfig config);

  /// ServeBatchObserver: batch-thread-synchronous.
  void OnBatchScored(const Matrix& rows, const std::vector<int>& predictions,
                     const Predictor& predictor) override;

  StreamCounters counters() const;
  /// ServeBatchObserver: the counters as flat JSON keys (no braces), for
  /// the server's stats snapshot.
  std::string CountersJson() const override;

  /// Blocks until no background research run is in flight (tests, final
  /// flush before shutdown).
  void WaitForResearch() { researcher_.WaitIdle(); }
  BackgroundResearcher& researcher() { return researcher_; }

 private:
  /// (Re)builds monitor + reservoir for the predictor's baseline; leaves
  /// the monitor unset when the artifact carries no reference stats.
  void RebuildForPredictor(const Predictor& predictor);

  ArtifactRegistry* const registry_;
  const StreamConfig config_;
  BackgroundResearcher researcher_;

  mutable std::mutex mutex_;  ///< guards everything below.
  StreamCounters counters_;
  /// Identity of the predictor the monitor was built for; a different
  /// pointer means a swap happened.
  const Predictor* baseline_owner_ = nullptr;
  std::optional<DriftMonitor> monitor_;
  std::unique_ptr<ReservoirSampler> reservoir_;
  int num_classes_ = 0;
};

}  // namespace autofp

#endif  // AUTOFP_STREAM_CONTROLLER_H_
