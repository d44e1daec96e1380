#ifndef AUTOFP_STREAM_RESEARCH_H_
#define AUTOFP_STREAM_RESEARCH_H_

/// Budget-bounded background re-search (see DESIGN.md "Streaming and
/// drift"): when the drift monitor fires, a snapshot of recent serving
/// rows is handed to a low-priority worker thread that re-runs the
/// pipeline search (the same RunSearch/SearchOptions machinery as the
/// CLI), exports the winner as a candidate artifact (atomic write), and
/// hot-swaps it through the ArtifactRegistry. Every failure path —
/// too-small snapshot, search found nothing, export failed, swap
/// rejected the candidate — is a typed Status and a counter bump; the
/// old artifact keeps serving untouched, and the generation only moves
/// on a successful swap.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "data/dataset.h"
#include "serve/registry.h"
#include "util/status.h"

namespace autofp {

struct ResearchConfig {
  /// Evaluation budget for one background search run.
  long budget_evaluations = 32;
  /// Table 3 algorithm name (search/registry.h).
  std::string algorithm = "RS";
  uint64_t seed = 1;
  /// Train share of the snapshot split (the paper's 80:20).
  double train_fraction = 0.8;
  /// Where the candidate artifact is exported before the swap. Required.
  std::string candidate_path;
  /// Optional durable-run journal for the background search ("" = none).
  std::string journal_path;
  /// Evaluator worker threads for the background search.
  int num_threads = 1;
  /// Snapshots smaller than this are refused (a search on a handful of
  /// pseudo-labeled rows would only produce noise).
  size_t min_rows = 64;
};

/// Owns the background thread. At most one run is in flight: triggers
/// arriving while busy are dropped (counted), because a newer window
/// will re-trigger if the drift persists.
class BackgroundResearcher {
 public:
  /// Runs (snapshot) -> candidate artifact at `path`. The default body
  /// searches with RunSearch and exports via ExportArtifact; tests
  /// substitute a rigged function to make the end-to-end path
  /// deterministic (or to fail on purpose).
  using SearchExportFn =
      std::function<Status(const Dataset& snapshot, const std::string& path)>;

  struct Counters {
    long triggers_accepted = 0;  ///< background runs started.
    /// Triggers refused because a run was in flight, or because
    /// `scored_by` no longer served when the trigger arrived.
    long triggers_dropped = 0;
    long runs_succeeded = 0;     ///< search + export + swap all OK.
    long runs_failed = 0;        ///< any stage failed; old artifact kept.
  };

  /// `registry` must outlive the researcher; the model config for the
  /// default search body is taken from the live predictor at run time.
  BackgroundResearcher(ArtifactRegistry* registry, ResearchConfig config);
  ~BackgroundResearcher();
  BackgroundResearcher(const BackgroundResearcher&) = delete;
  BackgroundResearcher& operator=(const BackgroundResearcher&) = delete;

  /// Starts a background run over `snapshot` unless one is in flight or
  /// the registry no longer serves `scored_by`, the predictor whose
  /// baseline the triggering window was compared against. Returns true
  /// when the run was accepted.
  bool TriggerAsync(Dataset snapshot, const Predictor& scored_by);

  /// The synchronous run body (also what the background thread executes):
  /// search, export candidate, swap. Any non-OK return leaves the
  /// registry untouched.
  Status RunOnce(const Dataset& snapshot);

  bool busy() const { return busy_.load(std::memory_order_acquire); }
  /// Blocks until no run is in flight (test/shutdown helper).
  void WaitIdle();

  Counters counters() const;

  /// Test hook: replaces the search+export body (not the swap).
  void set_search_export_fn(SearchExportFn fn);

 private:
  /// Default SearchExportFn: RunSearch on a snapshot split, then
  /// ExportArtifact of the best pipeline fitted on the full snapshot.
  Status SearchAndExport(const Dataset& snapshot, const std::string& path);
  void ThreadBody(Dataset snapshot);

  ArtifactRegistry* const registry_;
  const ResearchConfig config_;
  SearchExportFn search_export_fn_;

  std::atomic<bool> busy_{false};
  mutable std::mutex mutex_;  ///< guards counters_ and thread_.
  std::condition_variable idle_;
  Counters counters_;
  std::thread thread_;
};

}  // namespace autofp

#endif  // AUTOFP_STREAM_RESEARCH_H_
