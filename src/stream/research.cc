#include "stream/research.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/budget.h"
#include "core/evaluator.h"
#include "core/run_journal.h"
#include "core/search_framework.h"
#include "core/search_space.h"
#include "data/splits.h"
#include "search/registry.h"
#include "serve/artifact.h"
#include "util/logging.h"
#include "util/random.h"

namespace autofp {
namespace {

/// Best-effort: background search must never steal cycles from the serve
/// threads, so the worker renices itself (thread-scoped on Linux; a
/// failure — e.g. no such capability — is simply ignored).
void LowerThreadPriority() {
#ifdef __linux__
  const pid_t tid = static_cast<pid_t>(syscall(SYS_gettid));
  (void)setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 10);
#endif
}

}  // namespace

BackgroundResearcher::BackgroundResearcher(ArtifactRegistry* registry,
                                           ResearchConfig config)
    : registry_(registry), config_(std::move(config)) {
  AUTOFP_CHECK(registry_ != nullptr);
  search_export_fn_ = [this](const Dataset& snapshot,
                             const std::string& path) {
    return SearchAndExport(snapshot, path);
  };
}

BackgroundResearcher::~BackgroundResearcher() {
  WaitIdle();
  std::lock_guard<std::mutex> lock(mutex_);
  if (thread_.joinable()) thread_.join();
}

void BackgroundResearcher::set_search_export_fn(SearchExportFn fn) {
  AUTOFP_CHECK(fn != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  search_export_fn_ = std::move(fn);
}

bool BackgroundResearcher::TriggerAsync(Dataset snapshot,
                                        const Predictor& scored_by) {
  bool expected = false;
  if (!busy_.compare_exchange_strong(expected, true,
                                     std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.triggers_dropped;
    return false;
  }
  // A run publishes its swap before it clears busy_, so once the exchange
  // above succeeds, a swap by the previous run is visible here. A window
  // compared against the replaced baseline must not start another run.
  if (registry_->Acquire().get() != &scored_by) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.triggers_dropped;
      busy_.store(false, std::memory_order_release);
    }
    idle_.notify_all();
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.triggers_accepted;
  // Reap the previous (finished) thread before launching the next run.
  if (thread_.joinable()) thread_.join();
  thread_ = std::thread(
      [this, moved = std::move(snapshot)]() mutable {
        ThreadBody(std::move(moved));
      });
  return true;
}

void BackgroundResearcher::ThreadBody(Dataset snapshot) {
  LowerThreadPriority();
  const Status status = RunOnce(snapshot);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status.ok()) {
      ++counters_.runs_succeeded;
    } else {
      ++counters_.runs_failed;
      std::fprintf(stderr, "research: run failed, keeping old artifact: %s\n",
                   status.ToString().c_str());
    }
    // Cleared under the mutex so WaitIdle's predicate check can't miss
    // the wakeup.
    busy_.store(false, std::memory_order_release);
  }
  idle_.notify_all();
}

Status BackgroundResearcher::RunOnce(const Dataset& snapshot) {
  if (snapshot.num_rows() < config_.min_rows) {
    return Status::InvalidArgument(
        "research: snapshot has " + std::to_string(snapshot.num_rows()) +
        " rows, need at least " + std::to_string(config_.min_rows));
  }
  if (config_.candidate_path.empty()) {
    return Status::InvalidArgument("research: no candidate path configured");
  }
  SearchExportFn body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body = search_export_fn_;
  }
  Status produced = body(snapshot, config_.candidate_path);
  if (!produced.ok()) return produced;
  // The swap is the only step that touches serving state: it loads the
  // candidate through the full corruption taxonomy and publishes it with
  // one pointer exchange, or leaves the old predictor serving.
  return registry_->Swap(config_.candidate_path);
}

Status BackgroundResearcher::SearchAndExport(const Dataset& snapshot,
                                             const std::string& path) {
  // The downstream model is whatever the live artifact serves; re-search
  // only repicks the preprocessing pipeline (the paper's search space).
  std::shared_ptr<const Predictor> live = registry_->Acquire();
  if (live == nullptr) {
    return Status::NotFound("research: no live artifact to take the model "
                            "config from");
  }
  const ModelConfig model_config = live->model_config();
  live.reset();  // don't pin the old predictor across the whole search.

  Status valid = snapshot.Validate();
  if (!valid.ok()) return valid;

  Rng rng(config_.seed);
  TrainValidSplit split =
      SplitTrainValid(snapshot, config_.train_fraction, &rng);
  PipelineEvaluator evaluator(std::move(split.train), std::move(split.valid),
                              model_config);
  Result<std::unique_ptr<SearchAlgorithm>> algorithm =
      MakeSearchAlgorithm(config_.algorithm);
  if (!algorithm.ok()) return algorithm.status();
  SearchSpace space = SearchSpace::Default();

  SearchOptions options;
  options.budget = Budget::Evaluations(config_.budget_evaluations);
  options.seed = config_.seed;
  options.num_threads = config_.num_threads;
  std::unique_ptr<RunJournalWriter> journal;
  if (!config_.journal_path.empty()) {
    Result<std::unique_ptr<RunJournalWriter>> created = RunJournalWriter::Create(
        config_.journal_path, SearchOptionsFingerprint(options),
        DatasetFingerprint(snapshot));
    if (!created.ok()) return created.status();
    journal = std::move(created.value());
    options.journal = journal.get();
  }

  SearchResult result =
      RunSearch(algorithm.value().get(), &evaluator, space, options);
  if (result.num_successes == 0) {
    return Status::Internal(
        "research: no pipeline evaluated successfully on the snapshot");
  }
  // Fit the winner on the full snapshot and export the candidate; the
  // write is atomic (WriteFileAtomic), so the registry can never load a
  // half-written candidate.
  Result<ArtifactSchema> exported =
      ExportArtifact(path, snapshot, result.best_pipeline, model_config);
  if (!exported.ok()) return exported.status();
  return Status::OK();
}

void BackgroundResearcher::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return !busy_.load(std::memory_order_acquire); });
}

BackgroundResearcher::Counters BackgroundResearcher::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace autofp
