#ifndef AUTOFP_CORE_SEARCH_FRAMEWORK_H_
#define AUTOFP_CORE_SEARCH_FRAMEWORK_H_

#include <csignal>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/budget.h"
#include "core/evaluator.h"
#include "core/fault.h"
#include "core/search_space.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace autofp {

class RunJournalWriter;  // core/run_journal.h
class RunJournalReplay;  // core/run_journal.h

/// Everything that configures one search run besides the algorithm, the
/// evaluator and the space. An aggregate, so call sites read
/// `RunSearch(&alg, &eval, space, {budget, seed})` and grow options
/// without signature churn.
struct SearchOptions {
  Budget budget{};
  uint64_t seed = 0;
  /// Retry/quarantine behaviour for failed evaluations.
  FaultPolicy fault_policy{};
  /// Worker threads for batch evaluation (EvaluateBatch); 1 = evaluate
  /// batches inline on the caller. Results are thread-count-invariant.
  int num_threads = 1;
  /// Worker *processes* behind the evaluator (reporting only: the caller
  /// builds the DistributedEvaluator and passes it as the evaluator —
  /// see dist/coordinator.h). Excluded from SearchOptionsFingerprint for
  /// the same reason as num_threads: history is worker-count-invariant,
  /// so a journaled run may be resumed at any worker count. Mutually
  /// exclusive with num_threads > 1 (the coordinator is single-threaded).
  int num_workers = 0;
  /// Nonzero turns on the result memo: SearchContext serves a repeated
  /// request (same pipeline, fraction and seed) from the run's earlier
  /// outcome instead of the evaluator. The prefix TransformCache is not
  /// configured here: whoever builds a PipelineEvaluator attaches one with
  /// AttachTransformCache and reads its stats().
  size_t cache_bytes = 0;
  /// Durable-run hooks (DESIGN.md "Durable runs and crash recovery").
  /// Non-owning, may be null. `journal` receives one fsync'd record per
  /// fresh evaluator outcome; `replay` serves recorded outcomes instead
  /// of re-evaluating until it runs dry (replayed outcomes are not
  /// re-appended — on resume they are already in the file).
  RunJournalWriter* journal = nullptr;
  RunJournalReplay* replay = nullptr;
  /// Graceful-stop request (e.g. set from a SIGINT/SIGTERM handler): when
  /// non-null and nonzero, the budget reads as exhausted, so the search
  /// stops at the next evaluation boundary with its bookkeeping intact.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
  /// Injected faults and slowdowns (default: none). SearchContext draws
  /// one DecideInjection per attempt that misses the result memo, before
  /// dispatch, so whichever evaluator sits behind it sees the same
  /// outcomes.
  FaultInjectorConfig fault_injection{};
};

/// Services the unified framework (Algorithm 1) offers an algorithm:
/// the search space, a seeded RNG, budget-aware evaluation, and the
/// shared evaluation history. Owned by RunSearch.
///
/// Fault tolerance (see DESIGN.md "Failure semantics"): evaluations that
/// fail transiently are retried; pipelines that fail permanently are
/// quarantined and never re-evaluated; every failed evaluation enters the
/// history with the penalty score flagged as failed, and the search
/// continues. Injected faults (SearchOptions::fault_injection) are decided
/// here, at the one point every evaluation passes.
///
/// Determinism: every evaluation's seed is derived from (run seed,
/// pipeline, fraction, attempt) — never from call order — so the recorded
/// history for a given request sequence is identical at any thread count.
///
/// Durability (see DESIGN.md "Durable runs and crash recovery"): with
/// SearchOptions::journal set, every fresh evaluator outcome is appended
/// (fsync'd, CRC-protected) before the search continues; with ::replay
/// set, recorded outcomes are served instead of re-evaluating, budget and
/// retry/quarantine bookkeeping replaying identically — so a crashed run
/// re-run from its journal converges to the byte-identical history.
class SearchContext {
 public:
  SearchContext(const SearchSpace* space, EvaluatorInterface* evaluator,
                const SearchOptions& options);
  ~SearchContext();

  const SearchSpace& space() const { return *space_; }
  Rng* rng() { return &rng_; }

  /// Step 4 of Algorithm 1: evaluates `pipeline`, records it in the
  /// history, and returns its validation accuracy — or nullopt when the
  /// budget ran out (the algorithm should then return from Iterate).
  std::optional<double> Evaluate(const PipelineSpec& pipeline,
                                 double budget_fraction = 1.0);

  /// Batch form of Evaluate: submits a whole generation/rung at once so
  /// the parallel engine can use every worker, then records results in
  /// index order. Bookkeeping (budget charges, retries, quarantine, best
  /// tracking, history order) matches evaluating the span sequentially
  /// through Evaluate(); entry i is nullopt iff the budget ran out before
  /// slot i was admitted.
  std::vector<std::optional<double>> EvaluateBatch(
      std::span<const PipelineSpec> pipelines, double budget_fraction = 1.0);

  bool BudgetExhausted() const;

  const std::vector<Evaluation>& history() const { return history_; }
  long num_evaluations() const {
    return static_cast<long>(history_.size());
  }

  /// Budget consumed on the evaluation axis: partial-training evaluations
  /// (bandit algorithms) cost their budget fraction, so an evaluation-count
  /// budget behaves like the paper's wall-clock budget.
  double evaluation_cost() const { return evaluation_cost_; }

  /// Best full-budget evaluation so far (partial-budget evaluations from
  /// bandit algorithms are tracked separately and do not count as final
  /// answers unless nothing else exists).
  bool has_best() const { return best_index_ >= 0; }
  const Evaluation& best() const;

  /// Seconds spent inside Evaluate() (prep + train + overhead) — the
  /// complement of "Pick" time in the Section 5.3 decomposition. Batch
  /// evaluations contribute their wall-clock span, so parallel speedup is
  /// visible here.
  double eval_seconds() const { return eval_seconds_; }
  /// Wall-clock consumed by this run, including time restored from the
  /// resume journal (so time budgets survive a crash/resume cycle).
  double elapsed_seconds() const {
    return journal_elapsed_seconds_ + total_watch_.ElapsedSeconds();
  }

  /// Fault bookkeeping. num_failures counts evaluator attempts that
  /// returned a failure (including ones later recovered by a retry);
  /// num_retries counts retry attempts; num_quarantined counts distinct
  /// quarantined pipelines; num_quarantine_hits counts evaluations
  /// short-circuited because the pipeline was already quarantined.
  long num_failures() const { return num_failures_; }
  long num_retries() const { return num_retries_; }
  long num_quarantined() const {
    return static_cast<long>(quarantine_.size());
  }
  /// Keys of the quarantined pipelines, sorted (deterministic order).
  std::vector<std::string> quarantined_pipelines() const;
  long num_quarantine_hits() const { return num_quarantine_hits_; }
  /// History entries that did not fail (the entries best() may pick from).
  long num_successes() const { return num_successes_; }
  /// Evaluations served from the resume journal instead of the evaluator.
  long num_replayed() const { return num_replayed_; }
  /// True once the stop flag (SearchOptions::stop_flag) was observed set.
  bool interrupted() const {
    return options_.stop_flag != nullptr && *options_.stop_flag != 0;
  }
  bool IsQuarantined(const PipelineSpec& pipeline) const {
    return quarantine_.count(pipeline.Key()) > 0;
  }
  const SearchOptions& options() const { return options_; }

  /// Result-memo lookups (cache_bytes > 0 only), one per evaluation
  /// attempt: hits were served from the memo, misses reached the evaluator.
  long result_cache_hits() const { return memo_hits_; }
  long result_cache_misses() const { return memo_misses_; }

  /// ThreadPool::busy_seconds of the evaluation pool; 0 without one.
  double pool_busy_seconds() const {
    return pool_ != nullptr ? pool_->busy_seconds() : 0.0;
  }

 private:
  /// Builds the canonical request for (pipeline, fraction, attempt).
  EvalRequest MakeRequest(const PipelineSpec& pipeline,
                          double budget_fraction, int attempt) const;
  /// Runs `requests` through the evaluator's own batch engine, the pool,
  /// or inline when single-threaded, with transient-failure retry rounds;
  /// each round first serves the requests the result memo holds, then
  /// resolves the injected faults and deadline-breaking slowdowns among
  /// the misses without the evaluator. On return, `results[i]` is the
  /// final outcome of request i and `retries[i]` the retry attempts it
  /// consumed.
  void EvaluateWithRetries(std::vector<EvalRequest> requests,
                           std::vector<Evaluation>* results,
                           std::vector<int>* retries);
  /// History push + failure accounting + best-tracking for one record.
  /// `retries` is the number of retry attempts this record absorbed.
  double RecordEvaluation(Evaluation evaluation, int retries);
  /// Records a quarantine short-circuit for `pipeline` and returns the
  /// penalty score.
  double RecordQuarantineHit(const PipelineSpec& pipeline,
                             double budget_fraction, EvalFailure failure);

  const SearchSpace* space_;
  EvaluatorInterface* evaluator_;
  SearchOptions options_;
  Budget budget_;
  Rng rng_;
  /// Result memo (empty unless cache_bytes > 0): request identity
  /// (pipeline key, fraction, seed) -> the evaluator's outcome. Evaluation
  /// is a pure function of the request, so a repeat is served verbatim,
  /// timing included.
  std::unordered_map<std::string, Evaluation> memo_;
  long memo_hits_ = 0;
  long memo_misses_ = 0;
  /// Reusable transform buffers, one per pool worker (index 0 serves the
  /// sequential path): a worker runs one evaluation at a time, so its
  /// buffers never cross threads.
  std::vector<TransformScratch> scratch_;
  /// Evaluation workers; null when num_threads == 1. Declared after what
  /// they use, so they are joined first.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Evaluation> history_;
  /// Pipeline key -> the permanent failure that quarantined it.
  std::unordered_map<std::string, EvalFailure> quarantine_;
  double evaluation_cost_ = 0.0;
  int best_index_ = -1;
  double best_key_ = -1.0;
  double eval_seconds_ = 0.0;
  long num_failures_ = 0;
  long num_retries_ = 0;
  long num_quarantine_hits_ = 0;
  long num_successes_ = 0;
  long num_replayed_ = 0;
  /// Wall-clock restored from replayed journal records; added to the live
  /// stopwatch so a resumed time-budget run continues from its recorded
  /// consumption instead of restarting the clock.
  double journal_elapsed_seconds_ = 0.0;
  Stopwatch total_watch_;
};

/// A search algorithm in the unified framework: Initialize() performs
/// Step 1 (initial pipelines), each Iterate() performs Steps 2-4 (update
/// surrogate, sample, evaluate via the context).
class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Step 1. May evaluate initial pipelines through the context.
  virtual void Initialize(SearchContext* context) { (void)context; }

  /// One iteration of Steps 2-4. Must call context->Evaluate() at least
  /// once unless the budget is exhausted.
  virtual void Iterate(SearchContext* context) = 0;
};

/// Outcome of one search run.
struct SearchResult {
  std::string algorithm;
  PipelineSpec best_pipeline;
  double best_accuracy = 0.0;
  double baseline_accuracy = 0.0;  ///< no-FP accuracy.
  long num_evaluations = 0;
  /// Budget units consumed (partial-training evaluations cost their
  /// training fraction); <= the evaluation budget when one was set.
  double evaluation_cost = 0.0;
  double elapsed_seconds = 0.0;
  /// Section 5.3 decomposition. pick = elapsed - (prep + train + overhead
  /// inside Evaluate); prep/train summed over all evaluations.
  double pick_seconds = 0.0;
  double prep_seconds = 0.0;
  double train_seconds = 0.0;
  /// Fault report (see SearchContext accessors for exact semantics):
  /// failed evaluator attempts, retries performed, distinct pipelines
  /// quarantined, and evaluations short-circuited by the quarantine.
  long num_failures = 0;
  long num_retries = 0;
  long num_quarantined = 0;
  long num_quarantine_hits = 0;
  /// Keys of the quarantined pipelines, sorted; size() == num_quarantined.
  /// Lets meta-searches (two-step) that run many inner searches — each
  /// with its own quarantine map — count distinct pipelines instead of
  /// summing per-round figures.
  std::vector<std::string> quarantined_pipelines;
  /// History entries that did not fail; 0 means every evaluation failed
  /// and `best_accuracy` is only the baseline/penalty fallback.
  long num_successes = 0;
  /// Evaluation-engine report: worker threads/processes used and result
  /// memo traffic (zero when the run used no memo). Prefix-cache traffic
  /// is read from the TransformCache its owner attached.
  int num_threads = 1;
  int num_workers = 0;
  /// Summed wall time of the evaluation pool's tasks, HelpFor helpers
  /// included (ThreadPool::busy_seconds); 0 when the run had no pool.
  /// busy / (num_threads * elapsed_seconds) is the pool's utilisation.
  double pool_busy_seconds = 0.0;
  long result_cache_hits = 0;
  long result_cache_misses = 0;
  /// Durable-run report: evaluations served from the resume journal, and
  /// whether the run was stopped early by the graceful-stop flag.
  long num_replayed = 0;
  bool interrupted = false;
};

/// Drives Algorithm 1: Initialize once, then Iterate until the budget is
/// exhausted. Returns the best pipeline found (empty pipeline if the
/// algorithm never completed a successful evaluation).
SearchResult RunSearch(SearchAlgorithm* algorithm,
                       EvaluatorInterface* evaluator,
                       const SearchSpace& space,
                       const SearchOptions& options);

}  // namespace autofp

#endif  // AUTOFP_CORE_SEARCH_FRAMEWORK_H_
