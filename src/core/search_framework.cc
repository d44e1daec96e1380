#include "core/search_framework.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/run_journal.h"

namespace autofp {

namespace {

/// The result memo's key. The deadline is left out: every request of a
/// run carries the same one (budget_.max_eval_seconds).
std::string MemoKey(const EvalRequest& request) {
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "|f%.17g|s%llu",
                request.budget_fraction,
                static_cast<unsigned long long>(request.seed));
  return request.pipeline.Key() + suffix;
}

}  // namespace

SearchContext::SearchContext(const SearchSpace* space,
                             EvaluatorInterface* evaluator,
                             const SearchOptions& options)
    : space_(space),
      evaluator_(evaluator),
      options_(options),
      budget_(options.budget),
      rng_(options.seed),
      policy_(options.fault_policy) {
  AUTOFP_CHECK(space != nullptr);
  AUTOFP_CHECK(evaluator != nullptr);
  AUTOFP_CHECK(budget_.limited()) << "unlimited budget would never terminate";
  AUTOFP_CHECK_GE(options.num_threads, 1);
  AUTOFP_CHECK(options.num_workers <= 0 || options.num_threads == 1)
      << "distributed workers and in-process evaluation threads are "
         "mutually exclusive (the coordinator submits from one thread)";

  if (options.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  scratch_.resize(static_cast<size_t>(options.num_threads));
}

SearchContext::~SearchContext() = default;

bool SearchContext::BudgetExhausted() const {
  if (interrupted()) return true;  // graceful stop at evaluation boundary.
  if (budget_.max_evaluations >= 0 &&
      evaluation_cost_ >= static_cast<double>(budget_.max_evaluations)) {
    return true;
  }
  if (budget_.max_seconds >= 0.0 && elapsed_seconds() >= budget_.max_seconds) {
    return true;
  }
  return false;
}

EvalRequest SearchContext::MakeRequest(const PipelineSpec& pipeline,
                                       double budget_fraction,
                                       int attempt) const {
  EvalRequest request;
  request.pipeline = pipeline;
  request.budget_fraction = budget_fraction;
  request.deadline_seconds = budget_.max_eval_seconds;
  request.seed =
      EvalRequest::DeriveSeed(options_.seed, pipeline, budget_fraction, attempt);
  return request;
}

void SearchContext::EvaluateWithRetries(std::vector<EvalRequest> requests,
                                        std::vector<Evaluation>* results,
                                        std::vector<int>* retries) {
  const size_t count = requests.size();
  results->resize(count);
  retries->assign(count, 0);
  if (count == 0) return;

  const bool memo_on = options_.cache_bytes > 0;
  std::vector<size_t> active(count);
  for (size_t i = 0; i < count; ++i) active[i] = i;
  int attempt = 1;
  while (!active.empty()) {
    // Repeats of an earlier request of this run are served from the memo;
    // only the misses reach the evaluator.
    std::vector<size_t> missed;
    std::vector<std::string> missed_keys;
    for (size_t index : active) {
      if (memo_on) {
        std::string key = MemoKey(requests[index]);
        auto found = memo_.find(key);
        if (found != memo_.end()) {
          ++memo_hits_;
          (*results)[index] = found->second;
          continue;
        }
        ++memo_misses_;
        missed_keys.push_back(std::move(key));
      }
      missed.push_back(index);
    }
    std::vector<EvalRequest> round;
    round.reserve(missed.size());
    for (size_t index : missed) round.push_back(requests[index]);
    std::vector<Evaluation> round_results;
    if (round.empty()) {
      // Every request of the round was a memo hit.
    } else if (evaluator_->SupportsConcurrentBatches()) {
      // The evaluator overlaps evaluations itself (a distributed
      // coordinator): hand it the whole round at once.
      round_results = evaluator_->EvaluateAll(round);
    } else if (pool_ != nullptr) {
      // Results are slotted by index, so they do not depend on which
      // worker ran which request.
      round_results.resize(round.size());
      pool_->ParallelFor(round.size(), [&](size_t i, int worker) {
        round_results[i] = evaluator_->Evaluate(round[i], &scratch_[worker]);
      });
    } else {
      round_results.reserve(round.size());
      for (const EvalRequest& request : round) {
        round_results.push_back(evaluator_->Evaluate(request, &scratch_[0]));
      }
    }
    for (size_t k = 0; k < missed.size(); ++k) {
      // A deadline failure depends on wall-clock, not on the request, so
      // it is the one outcome a repeat must not reuse.
      if (memo_on &&
          round_results[k].failure != EvalFailure::kDeadlineExceeded) {
        memo_.emplace(std::move(missed_keys[k]), round_results[k]);
      }
      (*results)[missed[k]] = std::move(round_results[k]);
    }

    // Transient failures (injected faults, deadline flakes) retry with a
    // re-derived attempt seed; permanent ones are deterministic and final.
    std::vector<size_t> to_retry;
    for (size_t index : active) {
      const Evaluation& evaluation = (*results)[index];
      if (evaluation.failed() && IsTransientFailure(evaluation.failure) &&
          attempt <= policy_.max_retries) {
        to_retry.push_back(index);
      }
    }
    if (to_retry.empty()) break;
    BackoffSleep(policy_, attempt);
    ++attempt;
    for (size_t index : to_retry) {
      ++(*retries)[index];
      requests[index].seed = EvalRequest::DeriveSeed(
          options_.seed, requests[index].pipeline,
          requests[index].budget_fraction, attempt);
    }
    active = std::move(to_retry);
  }
}

double SearchContext::RecordEvaluation(Evaluation evaluation, int retries) {
  // Every retried attempt had failed first; the final attempt adds one
  // more failure if it also failed.
  num_failures_ += retries;
  num_retries_ += retries;
  evaluation_cost_ += evaluation.budget_fraction;
  evaluation.attempts = 1 + retries;

  if (evaluation.failed()) {
    ++num_failures_;
    evaluation.accuracy = kPenaltyAccuracy;  // never record garbage scores.
    if (policy_.quarantine && !IsTransientFailure(evaluation.failure)) {
      quarantine_.emplace(evaluation.pipeline.Key(), evaluation.failure);
    }
  }
  history_.push_back(std::move(evaluation));
  const Evaluation& recorded = history_.back();
  if (!recorded.failed()) ++num_successes_;

  // Best-tracking considers only successful, finite scores: a failed or
  // NaN accuracy must never compare its way past best_key_ (NaN poisons
  // every subsequent comparison).
  bool eligible = !recorded.failed() && std::isfinite(recorded.accuracy);
  if (eligible) {
    // Prefer full-budget evaluations as final answers; a partial-budget
    // result is only kept while no full-budget result exists.
    bool is_full = recorded.budget_fraction >= 1.0;
    bool best_is_full =
        best_index_ >= 0 && history_[best_index_].budget_fraction >= 1.0;
    bool better;
    if (best_index_ < 0) {
      better = true;
    } else if (is_full != best_is_full) {
      better = is_full;
    } else {
      better = recorded.accuracy > best_key_;
    }
    if (better) {
      best_index_ = static_cast<int>(history_.size() - 1);
      best_key_ = recorded.accuracy;
    }
  }
  return recorded.accuracy;
}

double SearchContext::RecordQuarantineHit(const PipelineSpec& pipeline,
                                          double budget_fraction,
                                          EvalFailure failure) {
  // Quarantined pipelines failed permanently before: short-circuit with
  // the penalty score instead of wasting evaluator work. The budget is
  // still charged so algorithms that keep re-proposing a quarantined
  // pipeline cannot loop forever.
  ++num_quarantine_hits_;
  evaluation_cost_ += budget_fraction;
  Evaluation evaluation;
  evaluation.pipeline = pipeline;
  evaluation.budget_fraction = budget_fraction;
  evaluation.failure = failure;
  evaluation.status = Status::Internal("pipeline quarantined");
  evaluation.accuracy = kPenaltyAccuracy;
  evaluation.attempts = 0;
  history_.push_back(std::move(evaluation));
  return kPenaltyAccuracy;
}

std::optional<double> SearchContext::Evaluate(const PipelineSpec& pipeline,
                                              double budget_fraction) {
  return EvaluateBatch(std::span<const PipelineSpec>(&pipeline, 1),
                       budget_fraction)
      .front();
}

std::vector<std::optional<double>> SearchContext::EvaluateBatch(
    std::span<const PipelineSpec> pipelines, double budget_fraction) {
  std::vector<std::optional<double>> out(pipelines.size());
  if (pipelines.empty()) return out;

  // Phase 1 — admission, replaying the sequential budget check in index
  // order. Quarantine hits and real evaluations both charge
  // `budget_fraction`, so admission depends only on how many slots fit.
  // Distinct keys are evaluated once; duplicates reuse the result (with a
  // request-pure evaluator a re-run would be byte-identical).
  enum class Slot { kSkipped, kQuarantineHit, kEvaluate };
  const size_t count = pipelines.size();
  std::vector<Slot> slots(count, Slot::kSkipped);
  std::vector<EvalFailure> hit_failure(count, EvalFailure::kNone);
  std::vector<size_t> request_index(count, 0);
  std::unordered_map<std::string, size_t> key_to_request;
  std::vector<EvalRequest> requests;
  double projected_cost = evaluation_cost_;
  for (size_t i = 0; i < count; ++i) {
    bool cost_exhausted =
        budget_.max_evaluations >= 0 &&
        projected_cost >= static_cast<double>(budget_.max_evaluations);
    bool time_exhausted = budget_.max_seconds >= 0.0 &&
                          elapsed_seconds() >= budget_.max_seconds;
    if (cost_exhausted || time_exhausted || interrupted()) {
      continue;  // stays kSkipped.
    }
    projected_cost += budget_fraction;
    auto quarantined = quarantine_.find(pipelines[i].Key());
    if (quarantined != quarantine_.end()) {
      slots[i] = Slot::kQuarantineHit;
      hit_failure[i] = quarantined->second;
      continue;
    }
    slots[i] = Slot::kEvaluate;
    auto [entry, inserted] =
        key_to_request.emplace(pipelines[i].Key(), requests.size());
    if (inserted) requests.push_back(MakeRequest(pipelines[i], budget_fraction, 1));
    request_index[i] = entry->second;
  }

  // Phase 2 — serve recorded outcomes from the resume journal, then
  // evaluate the remaining distinct keys concurrently with retry rounds.
  // Replay is keyed by request identity and FIFO per key, so the
  // deterministic re-run consumes exactly the recorded sequence no matter
  // where batch boundaries fall relative to the crash point.
  Stopwatch watch;
  std::vector<Evaluation> results(requests.size());
  std::vector<int> retries(requests.size(), 0);
  std::vector<EvalRequest> live;
  std::vector<size_t> live_slot;
  for (size_t r = 0; r < requests.size(); ++r) {
    if (options_.replay != nullptr) {
      std::optional<JournalRecord> record =
          options_.replay->Take(requests[r].pipeline.Key(), budget_fraction);
      if (record.has_value()) {
        AUTOFP_CHECK(record->seed == requests[r].seed)
            << "journal record for '" << record->pipeline
            << "' carries a different request seed — the journal was "
               "recorded under options this run does not reproduce";
        results[r] = EvaluationFromRecord(*record);
        retries[r] = record->attempts - 1;
        journal_elapsed_seconds_ += record->elapsed_seconds;
        eval_seconds_ += record->elapsed_seconds;
        ++num_replayed_;
        continue;
      }
    }
    live.push_back(requests[r]);
    live_slot.push_back(r);
  }
  if (!live.empty()) {
    // First-attempt seeds are the requests' identity in the journal;
    // EvaluateWithRetries re-derives seeds per retry attempt.
    std::vector<uint64_t> live_seeds;
    live_seeds.reserve(live.size());
    for (const EvalRequest& request : live) live_seeds.push_back(request.seed);
    std::vector<Evaluation> live_results;
    std::vector<int> live_retries;
    const size_t live_count = live.size();  // `live` is consumed below.
    EvaluateWithRetries(std::move(live), &live_results, &live_retries);
    double live_elapsed = watch.ElapsedSeconds();
    eval_seconds_ += live_elapsed;
    // Journal every fresh outcome (durable before the search moves on).
    // The batch's wall-clock is apportioned evenly — it only matters for
    // restoring time-budget consumption on resume.
    double elapsed_share = live_elapsed / static_cast<double>(live_count);
    for (size_t k = 0; k < live_results.size(); ++k) {
      live_results[k].attempts = 1 + live_retries[k];
      if (options_.journal != nullptr) {
        Status appended = options_.journal->Append(MakeJournalRecord(
            live_results[k], live_seeds[k], elapsed_share));
        AUTOFP_CHECK(appended.ok())
            << "run journal append failed: " << appended.ToString();
      }
      results[live_slot[k]] = std::move(live_results[k]);
      retries[live_slot[k]] = live_retries[k];
    }
  }

  // Phase 3 — record in index order, replaying sequential bookkeeping:
  // the first occurrence of a key records the computed result (and may
  // quarantine it); later occurrences either hit that fresh quarantine or
  // record an identical copy with the same retry accounting.
  std::vector<bool> recorded_before(results.size(), false);
  for (size_t i = 0; i < count; ++i) {
    switch (slots[i]) {
      case Slot::kSkipped:
        break;
      case Slot::kQuarantineHit:
        out[i] =
            RecordQuarantineHit(pipelines[i], budget_fraction, hit_failure[i]);
        break;
      case Slot::kEvaluate: {
        const size_t r = request_index[i];
        auto quarantined = quarantine_.find(pipelines[i].Key());
        if (recorded_before[r] && quarantined != quarantine_.end()) {
          out[i] = RecordQuarantineHit(pipelines[i], budget_fraction,
                                       quarantined->second);
          break;
        }
        recorded_before[r] = true;
        out[i] = RecordEvaluation(results[r], retries[r]);
        break;
      }
    }
  }
  return out;
}

const Evaluation& SearchContext::best() const {
  AUTOFP_CHECK(has_best()) << "no evaluations recorded";
  return history_[best_index_];
}

std::vector<std::string> SearchContext::quarantined_pipelines() const {
  std::vector<std::string> keys;
  keys.reserve(quarantine_.size());
  for (const auto& [key, failure] : quarantine_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

SearchResult RunSearch(SearchAlgorithm* algorithm,
                       EvaluatorInterface* evaluator,
                       const SearchSpace& space,
                       const SearchOptions& options) {
  AUTOFP_CHECK(algorithm != nullptr);
  SearchContext context(&space, evaluator, options);
  algorithm->Initialize(&context);
  // Guard against algorithms that stop making progress before the budget
  // is exhausted (would otherwise spin forever under time budgets).
  int idle_iterations = 0;
  while (!context.BudgetExhausted() && idle_iterations < 3) {
    long before = context.num_evaluations();
    algorithm->Iterate(&context);
    idle_iterations = context.num_evaluations() == before
                          ? idle_iterations + 1
                          : 0;
  }

  SearchResult result;
  result.algorithm = algorithm->name();
  result.elapsed_seconds = context.elapsed_seconds();
  result.num_evaluations = context.num_evaluations();
  result.evaluation_cost = context.evaluation_cost();
  result.baseline_accuracy = evaluator->BaselineAccuracy();
  result.num_failures = context.num_failures();
  result.num_retries = context.num_retries();
  result.num_quarantined = context.num_quarantined();
  result.quarantined_pipelines = context.quarantined_pipelines();
  result.num_quarantine_hits = context.num_quarantine_hits();
  result.num_successes = context.num_successes();
  result.num_replayed = context.num_replayed();
  result.interrupted = context.interrupted();
  result.num_threads = options.num_threads;
  result.num_workers = options.num_workers;
  result.pool_busy_seconds = context.pool_busy_seconds();
  result.result_cache_hits = context.result_cache_hits();
  result.result_cache_misses = context.result_cache_misses();
  if (context.has_best()) {
    result.best_pipeline = context.best().pipeline;
    result.best_accuracy = context.best().accuracy;
  } else {
    result.best_accuracy = result.baseline_accuracy;
  }
  for (const Evaluation& evaluation : context.history()) {
    result.prep_seconds += evaluation.timing.prep_seconds;
    result.train_seconds += evaluation.timing.train_seconds;
  }
  result.pick_seconds = std::max(
      0.0, result.elapsed_seconds - context.eval_seconds());
  return result;
}

}  // namespace autofp
