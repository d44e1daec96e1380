/// The two search workloads: TEVO_H with LR on electricity_syn (4 threads,
/// caches, journal: Prep-bound) and RS with MLP on sylvine_syn over three
/// worker processes (Train-bound). Both drive RunSearch the way
/// tools/autofp_cli.cc does.
///
/// One repetition is setup plus one budgeted search with the fixed search
/// seed kSearchSeed; a run repeats it on a fixed plan (RepeatSearch) and
/// reports medians. --seed permutes the rows of the data. It must not pick
/// a different search trajectory: which pipelines TEVO_H visits follows
/// validation accuracies, and across 8 split seeds the same 150-evaluation
/// search ran at 13-55 evaluations/s, a spread no bound could gate.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/auto_fp.h"
#include "dist/coordinator.h"
#include "dist/shared_dataset.h"
#include "e2e.h"
#include "ml/metrics.h"
#include "preprocess/pipeline_parse.h"
#include "search/registry.h"
#include "util/timer.h"

namespace e2e {

namespace {

using namespace autofp;

constexpr uint64_t kSearchSeed = 7;
constexpr long kEvoBudget = 60;
constexpr int kEvoThreads = 4;
constexpr size_t kEvoCacheBytes = size_t{64} << 20;
constexpr long kWorkersBudget = 48;
constexpr int kWorkers = 3;
constexpr size_t kReplaySample = 48;

/// The search's evaluator, wrapped. Forwards every entry point the search
/// framework calls — both Evaluate forms, EvaluateAll,
/// SupportsConcurrentBatches and BaselineAccuracy — so wrapping changes
/// nothing about what runs. Timestamps every call; records spans only
/// when `spans` is set.
class RecordingEvaluator : public EvaluatorInterface {
 public:
  /// One evaluation as the search's evaluator saw it.
  struct Evaluated {
    std::string pipeline;
    double accuracy = 0.0;
    double end_us = 0.0;
    /// From the call that submitted it to that call's return.
    double latency_ms = 0.0;
    double busy_s = 0.0;  ///< Evaluation.timing prep + train.
  };
  /// One call into the wrapped evaluator: one evaluation or a batch.
  struct Call {
    double start_us = 0.0;
    double end_us = 0.0;
    double busy_s = 0.0;
  };

  RecordingEvaluator(EvaluatorInterface* inner, Tracer* tracer,
                     uint64_t run_span, bool spans)
      : inner_(inner), tracer_(tracer), run_span_(run_span), spans_(spans) {}

  Evaluation Evaluate(const EvalRequest& request) override {
    const double start = tracer_->NowUs();
    Evaluation evaluation = inner_->Evaluate(request);
    Record(start, {&evaluation, 1});
    return evaluation;
  }
  Evaluation Evaluate(const EvalRequest& request,
                      TransformScratch* scratch) override {
    const double start = tracer_->NowUs();
    Evaluation evaluation = inner_->Evaluate(request, scratch);
    Record(start, {&evaluation, 1});
    return evaluation;
  }
  std::vector<Evaluation> EvaluateAll(
      const std::vector<EvalRequest>& requests) override {
    const double start = tracer_->NowUs();
    std::vector<Evaluation> evaluations = inner_->EvaluateAll(requests);
    Record(start, evaluations);
    return evaluations;
  }
  bool SupportsConcurrentBatches() const override {
    return inner_->SupportsConcurrentBatches();
  }
  /// RunSearch asks for the no-FP baseline once, after its loop; the
  /// first call evaluates it, on the caller's thread.
  double BaselineAccuracy() override {
    const double start = tracer_->NowUs();
    const double accuracy = inner_->BaselineAccuracy();
    const double end = tracer_->NowUs();
    if (spans_) tracer_->Record("core.baseline", start, end, run_span_);
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back({start, end, 0.0});
    return accuracy;
  }

  const std::vector<Evaluated>& evaluated() const { return evaluated_; }
  /// Evaluator calls, baseline included.
  const std::vector<Call>& calls() const { return calls_; }

 private:
  void Record(double start_us, std::span<const Evaluation> evaluations) {
    const double end_us = tracer_->NowUs();
    Call call{start_us, end_us, 0.0};
    std::vector<Evaluated> records;
    for (const Evaluation& evaluation : evaluations) {
      const EvalTiming& timing = evaluation.timing;
      const double busy = timing.prep_seconds + timing.train_seconds;
      call.busy_s += busy;
      records.push_back({evaluation.pipeline.Key(), evaluation.accuracy,
                         end_us, (end_us - start_us) * 1e-3, busy});
    }
    if (spans_) {
      const uint64_t request = next_request_.fetch_add(1);
      if (evaluations.size() == 1) {
        const uint64_t span = tracer_->Record("core.evaluate", start_us,
                                              end_us, run_span_, request);
        // Children placed from the evaluator's own Prep/Train timing:
        // prep starts with the call, train follows it.
        const EvalTiming& timing = evaluations[0].timing;
        const double prep_end = start_us + timing.prep_seconds * 1e6;
        tracer_->Record("preprocess.prep", start_us, prep_end, span, request);
        tracer_->Record("ml.train", prep_end,
                        prep_end + timing.train_seconds * 1e6, span, request);
      } else {
        // A batch runs on worker processes; only its wall time is seen here.
        tracer_->Record("core.evaluate_batch", start_us, end_us, run_span_,
                        request);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
    evaluated_.insert(evaluated_.end(), records.begin(), records.end());
  }

  EvaluatorInterface* const inner_;
  Tracer* const tracer_;
  const uint64_t run_span_;
  const bool spans_;
  std::atomic<uint64_t> next_request_{1};
  std::mutex mutex_;
  std::vector<Evaluated> evaluated_;
  std::vector<Call> calls_;
};

/// What one call of a workload's repetition function does.
enum class RepKind {
  kWarmup,     ///< set up and search; checked, not measured.
  kSetupOnly,  ///< set up and tear down; only set-up time counts.
  kMeasured,   ///< set up and search, spans off.
  kTraced,     ///< set up and search, spans on.
};

/// What one repetition measured.
struct SearchRep {
  RepKind kind = RepKind::kMeasured;
  double setup_s = 0.0;
  double data_s = 0.0;
  double spawn_s = 0.0;
  double wall_s = 0.0;
  double time_to_best_s = 0.0;
  /// Share of the search's wall time covered neither by evaluator calls
  /// nor by the Pick time RunSearch reports.
  double unexplained_frac = 0.0;
  SearchResult result;
  std::vector<RecordingEvaluator::Evaluated> evaluated;
  std::vector<RecordingEvaluator::Call> calls;
  TransformCache::Stats cache;
  DistStats dist;
  /// The evaluator that holds the repetition's data, kept for rescoring.
  std::unique_ptr<PipelineEvaluator> evaluator;
  std::string journal_path;
};

void RunMeasuredSearch(const std::string& algorithm_name,
                       EvaluatorInterface* evaluator,
                       const SearchOptions& search, Tracer* tracer,
                       SearchRep* rep) {
  Result<std::unique_ptr<SearchAlgorithm>> algorithm =
      MakeSearchAlgorithm(algorithm_name);
  AUTOFP_CHECK(algorithm.ok()) << algorithm.status().ToString();
  const bool traced = rep->kind == RepKind::kTraced;
  const uint64_t run_span = traced ? tracer->NewId() : 0;
  RecordingEvaluator recording(evaluator, tracer, run_span, traced);
  const double start_us = tracer->NowUs();
  rep->result = RunSearch(algorithm.value().get(), &recording,
                          SearchSpace::Default(), search);
  const double end_us = tracer->NowUs();
  if (traced) {
    tracer->Record("search.run", start_us, end_us, 0, 0, run_span);
  }
  rep->wall_s = (end_us - start_us) * 1e-6;
  rep->evaluated = recording.evaluated();
  rep->calls = recording.calls();

  // Result-cache hits never reach the wrapper, so the first record of the
  // best pipeline is the evaluation that found it.
  const std::string best_key = rep->result.best_pipeline.Key();
  double best_end_us = end_us;
  for (const auto& evaluated : rep->evaluated) {
    if (evaluated.pipeline == best_key &&
        evaluated.accuracy == rep->result.best_accuracy) {
      best_end_us = std::min(best_end_us, evaluated.end_us);
    }
  }
  rep->time_to_best_s = (best_end_us - start_us) * 1e-6;

  std::vector<std::pair<double, double>> intervals;
  for (const auto& call : rep->calls) {
    intervals.push_back({call.start_us, call.end_us});
  }
  std::sort(intervals.begin(), intervals.end());
  double covered_us = 0.0;
  double cursor = start_us;
  for (const auto& [lo, hi] : intervals) {
    const double from = std::max(lo, cursor);
    if (hi > from) {
      covered_us += hi - from;
      cursor = hi;
    }
  }
  const double wall_us = end_us - start_us;
  const double pick_us = rep->result.pick_seconds * 1e6;
  rep->unexplained_frac =
      std::max(0.0, wall_us - covered_us - pick_us) / std::max(wall_us, 1.0);
}

/// Calls `run_rep(index, kind)` on a fixed plan, so every run of a workload
/// does the same work and a faster commit finishes sooner: one warm-up
/// repetition (checked, not measured; on the reference host it ran 1.4x
/// slower than the rest), then three measured repetitions, each after four
/// set-ups without a search, so set-up time is a median of fifteen spread
/// over the run. Traced runs alternate two untraced and two traced
/// repetitions of the same search, to measure the tracing overhead and
/// compare their answers.
template <typename RepFn>
std::vector<SearchRep> RepeatSearch(const RunOptions& options,
                                    RepFn run_rep) {
  constexpr int kSetupOnly = 4;
  constexpr int kMeasured = 3;
  std::vector<RepKind> plan;
  if (!options.quick) plan.push_back(RepKind::kWarmup);
  const int measured = options.quick      ? 1
                       : options.traced() ? 2
                                          : kMeasured;
  for (int i = 0; i < measured; ++i) {
    if (!options.quick) {
      plan.insert(plan.end(), kSetupOnly, RepKind::kSetupOnly);
    }
    plan.push_back(RepKind::kMeasured);
    if (options.traced()) plan.push_back(RepKind::kTraced);
  }
  std::vector<SearchRep> reps;
  for (size_t index = 0; index < plan.size(); ++index) {
    reps.push_back(run_rep(static_cast<int>(index), plan[index]));
  }
  return reps;
}

/// Fits `spec` on the evaluator's training data and scores it on its
/// validation data through the public layer calls, the way
/// PipelineEvaluator does for a full-budget request. Appends the
/// classifier's train and score times.
double Rescore(const PipelineEvaluator& evaluator, const PipelineSpec& spec,
               KindCosts* costs, std::vector<double>* fit_ms,
               std::vector<double>* score_ms) {
  Matrix train = evaluator.train().features;
  Matrix valid = evaluator.valid().features;
  costs->Replay(spec, &train, &valid);
  std::unique_ptr<Classifier> model = MakeClassifier(evaluator.model());
  Stopwatch fit;
  model->Train(train, evaluator.train().labels,
               evaluator.train().num_classes);
  fit_ms->push_back(fit.ElapsedSeconds() * 1e3);
  Stopwatch score;
  const double accuracy =
      EvaluateAccuracy(*model, valid, evaluator.valid().labels);
  score_ms->push_back(score.ElapsedSeconds() * 1e3);
  return accuracy;
}

/// Replays a seeded sample of the run's distinct evaluated pipelines
/// through the public layer calls and reports per-kind preprocessor and
/// classifier costs.
void ReplayPipelines(uint64_t seed, std::vector<std::string> pipelines,
                     const SearchRep& rep, Report* report) {
  std::sort(pipelines.begin(), pipelines.end());
  pipelines.erase(std::unique(pipelines.begin(), pipelines.end()),
                  pipelines.end());
  Rng rng(seed);
  KindCosts costs;
  std::vector<double> fit_ms;
  std::vector<double> score_ms;
  for (size_t index : rng.SampleWithoutReplacement(
           pipelines.size(), std::min(kReplaySample, pipelines.size()))) {
    Result<PipelineSpec> spec = ParsePipelineSpec(pipelines[index]);
    report->Check(spec.ok(), "replay: unparseable pipeline '" +
                                 pipelines[index] + "'");
    if (spec.ok()) {
      Rescore(*rep.evaluator, spec.value(), &costs, &fit_ms, &score_ms);
    }
  }
  costs.ReportTo(report);
  report->Set("ml.fit_ms_p50", Median(fit_ms));
  report->Set("ml.score_ms_p50", Median(score_ms));
}

/// Reads the repetition's journal back, re-appends every record to a fresh
/// fsync'd journal to time the append path, and returns the journaled
/// pipelines.
std::vector<std::string> ReplayJournal(const RunOptions& options,
                                       const SearchRep& rep,
                                       Report* report) {
  std::vector<std::string> pipelines;
  JournalReadResult read = ReadRunJournal(rep.journal_path);
  report->Check(read.ok() && !read.records.empty(),
                "journal replay: cannot read " + rep.journal_path + ": " +
                    read.status.ToString());
  if (!read.ok()) return pipelines;
  Result<std::unique_ptr<RunJournalWriter>> writer = RunJournalWriter::Create(
      options.workdir + "/replay.journal", read.header.options_fingerprint,
      read.header.dataset_fingerprint);
  report->Check(writer.ok(), "journal replay: cannot create a journal");
  if (!writer.ok()) return pipelines;
  std::vector<double> append_us;
  for (const JournalRecord& record : read.records) {
    Stopwatch watch;
    Status appended = writer.value()->Append(record);
    append_us.push_back(watch.ElapsedSeconds() * 1e6);
    report->Check(appended.ok(), "journal replay: append failed");
    pipelines.push_back(record.pipeline);
  }
  report->Set("core.journal_append_us_p50", Median(append_us));
  report->Set("core.journal_append_us_p99", Percentile(append_us, 0.99));
  return pipelines;
}

/// Checks every repetition and reports the end-to-end metrics, plus the
/// per-layer metrics of the traced repetitions. `pool_threads` is 0 when
/// evaluations run on worker processes.
void ReportSearch(const RunOptions& options,
                  const std::vector<SearchRep>& reps, long budget,
                  int pool_threads, Report* report) {
  const SearchResult& last = reps.back().result;
  std::vector<double> setup, data, spawn, throughput, latency_ms;
  std::vector<double> wall_untraced, wall_traced;
  for (size_t i = 0; i < reps.size(); ++i) {
    const SearchRep& rep = reps[i];
    if (rep.kind != RepKind::kWarmup) {
      setup.push_back(rep.setup_s);
      data.push_back(rep.data_s);
      spawn.push_back(rep.spawn_s);
    }
    if (rep.kind == RepKind::kSetupOnly) continue;
    const SearchResult& result = rep.result;
    const std::string which = "repetition " + std::to_string(i) + ": ";
    report->AddOps(result.num_evaluations,
                   result.num_failures + result.num_quarantine_hits);
    report->Check(result.num_evaluations == budget,
                  which + std::to_string(result.num_evaluations) +
                      " evaluations, budget " + std::to_string(budget));
    report->Check(result.num_failures == 0 && result.num_quarantined == 0,
                  which + "failed or quarantined evaluations");
    // Every repetition runs the same search on the same data, traced or
    // not, so every answer must be the same.
    report->Check(result.best_pipeline == last.best_pipeline &&
                      result.best_accuracy == last.best_accuracy,
                  which + "best '" + result.best_pipeline.ToString() +
                      "' differs from the last repetition's '" +
                      last.best_pipeline.ToString() + "'");
    if (rep.kind == RepKind::kWarmup) continue;
    if (rep.kind == RepKind::kTraced) {
      wall_traced.push_back(rep.wall_s);
      continue;
    }
    wall_untraced.push_back(rep.wall_s);
    throughput.push_back(static_cast<double>(result.num_evaluations) /
                         rep.wall_s);
    // A mean, not a median: evaluation latencies cluster by pipeline
    // kind, and a median falling between two clusters jumps between them
    // with small timing noise (13.6% spread across seeds, against 8% for
    // the throughput of the same evaluations).
    double sum_ms = 0.0;
    for (const auto& evaluated : rep.evaluated) sum_ms += evaluated.latency_ms;
    latency_ms.push_back(sum_ms / static_cast<double>(rep.evaluated.size()));
  }

  // Rescoring the best pipeline outside the search must reproduce its
  // accuracy bit for bit.
  KindCosts unused_costs;
  std::vector<double> unused_ms;
  const double rescored = Rescore(*reps.back().evaluator, last.best_pipeline,
                                  &unused_costs, &unused_ms, &unused_ms);
  report->Check(rescored == last.best_accuracy,
                "rescoring the best pipeline gave a different accuracy");

  report->Set("setup_s", Median(setup));
  report->Set("throughput", Median(throughput));
  report->Set("latency_ms", Median(latency_ms));
  report->Set("accuracy", last.best_accuracy);
  report->Set("setup.data_s", Median(data));
  report->Set("setup.spawn_s", Median(spawn));
  if (!options.traced()) return;

  std::vector<double> pick, best, pool_util, evaluate_ms, cache_hit_rate;
  std::vector<double> prep, prep_share, train, prefix_hit_rate, evictions;
  std::vector<double> cache_bytes, worker_util, imbalance, leases;
  std::vector<double> unexplained;
  double re_leases = 0.0, crashes = 0.0, fallback = 0.0;
  for (const SearchRep& rep : reps) {
    if (rep.kind != RepKind::kTraced) continue;
    const SearchResult& result = rep.result;
    pick.push_back(result.pick_seconds);
    best.push_back(rep.time_to_best_s);
    unexplained.push_back(rep.unexplained_frac);
    prep.push_back(result.prep_seconds);
    train.push_back(result.train_seconds);
    prep_share.push_back(result.prep_seconds /
                         (result.prep_seconds + result.train_seconds));
    const long lookups = result.result_cache_hits + result.result_cache_misses;
    cache_hit_rate.push_back(
        lookups > 0 ? static_cast<double>(result.result_cache_hits) / lookups
                    : 0.0);
    double busy = 0.0;
    for (const auto& call : rep.calls) busy += call.busy_s;
    for (const auto& evaluated : rep.evaluated) {
      // In-process evaluations are timed at the wrapper; a batch on worker
      // processes is one call, so each evaluation's own Prep + Train
      // timing is its evaluate time.
      evaluate_ms.push_back(pool_threads > 0 ? evaluated.latency_ms
                                             : evaluated.busy_s * 1e3);
    }
    if (pool_threads > 0) {
      pool_util.push_back(busy / (pool_threads * rep.wall_s));
      prefix_hit_rate.push_back(rep.cache.HitRate());
      evictions.push_back(static_cast<double>(rep.cache.evictions));
      cache_bytes.push_back(static_cast<double>(rep.cache.bytes));
    } else {
      worker_util.push_back(busy / (kWorkers * rep.wall_s));
      for (const auto& call : rep.calls) {
        if (call.busy_s > 0.0) {
          imbalance.push_back((call.end_us - call.start_us) * 1e-6 /
                              (call.busy_s / kWorkers));
        }
      }
      leases.push_back(static_cast<double>(rep.dist.leases_issued));
      re_leases += static_cast<double>(rep.dist.re_leases);
      crashes += static_cast<double>(rep.dist.worker_crashes);
      fallback += static_cast<double>(rep.dist.local_fallback_evals);
    }
  }
  report->Set("search.pick_s", Median(pick));
  report->Set("search.time_to_best_s", Median(best));
  report->Set("core.pool_util", Median(pool_util));
  report->Set("core.evaluate_ms_p50", Median(evaluate_ms));
  report->Set("core.evaluate_ms_p99", Percentile(evaluate_ms, 0.99));
  report->Set("core.result_cache_hit_rate", Median(cache_hit_rate));
  report->Set("preprocess.prep_s", Median(prep));
  report->Set("preprocess.prep_share", Median(prep_share));
  report->Set("preprocess.cache_hit_rate", Median(prefix_hit_rate));
  report->Set("preprocess.cache_evictions", Median(evictions));
  report->Set("preprocess.cache_bytes", Median(cache_bytes));
  report->Set("ml.train_s", Median(train));
  report->Set("dist.worker_util", Median(worker_util));
  report->Set("dist.batch_imbalance", Median(imbalance));
  report->Set("dist.leases", Median(leases));
  report->Set("dist.re_leases", re_leases);
  report->Set("dist.worker_crashes", crashes);
  report->Set("dist.local_fallback_evals", fallback);
  report->Set("trace.overhead_frac",
              Median(wall_traced) / Median(wall_untraced) - 1.0);
  report->Set("trace.unexplained_frac", Median(unexplained));
}

const SearchRep& LastTraced(const std::vector<SearchRep>& reps) {
  for (auto it = reps.rbegin(); it != reps.rend(); ++it) {
    if (it->kind == RepKind::kTraced) return *it;
  }
  return reps.back();
}

SearchRep EvoRep(const RunOptions& options, Tracer* tracer, int index,
                 RepKind kind, long budget) {
  SearchRep rep;
  rep.kind = kind;
  Stopwatch setup;
  Result<Dataset> data = GetSuiteDataset("electricity_syn");
  AUTOFP_CHECK(data.ok()) << data.status().ToString();
  Rng split_rng(kSearchSeed);
  TrainValidSplit split = SplitTrainValid(data.value(), 0.8, &split_rng);
  // The seed orders the rows within the fixed train and valid sets.
  Dataset train = PermuteRows(split.train, options.seed);
  Dataset valid = PermuteRows(split.valid, options.seed + 1);
  rep.data_s = setup.ElapsedSeconds();
  rep.evaluator = std::make_unique<PipelineEvaluator>(
      std::move(train), std::move(valid),
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  // SearchContext attaches its prefix cache only to an evaluator it can
  // dynamic_cast to PipelineEvaluator, which the wrapper is not.
  auto cache = std::make_shared<TransformCache>(kEvoCacheBytes);
  rep.evaluator->AttachTransformCache(cache);
  SearchOptions search;
  search.budget = Budget::Evaluations(budget);
  search.seed = kSearchSeed;
  search.num_threads = kEvoThreads;
  search.cache_bytes = kEvoCacheBytes;
  rep.journal_path =
      options.workdir + "/evo-" + std::to_string(index) + ".journal";
  Result<std::unique_ptr<RunJournalWriter>> journal = RunJournalWriter::Create(
      rep.journal_path, SearchOptionsFingerprint(search),
      DatasetFingerprint(rep.evaluator->train()));
  AUTOFP_CHECK(journal.ok()) << journal.status().ToString();
  search.journal = journal.value().get();
  rep.setup_s = setup.ElapsedSeconds();
  if (kind == RepKind::kSetupOnly) {
    rep.evaluator.reset();
    return rep;
  }

  RunMeasuredSearch("TEVO_H", rep.evaluator.get(), search, tracer, &rep);
  rep.cache = cache->stats();
  rep.evaluator->AttachTransformCache(nullptr);  // free it before the next.
  return rep;
}

SearchRep WorkersRep(const RunOptions& options, Tracer* tracer, int index,
                     RepKind kind, long budget) {
  SearchRep rep;
  rep.kind = kind;
  Stopwatch setup;
  Result<Dataset> suite = GetSuiteDataset("sylvine_syn");
  AUTOFP_CHECK(suite.ok()) << suite.status().ToString();
  const Dataset data = PermuteRows(suite.value(), options.seed);
  rep.data_s = setup.ElapsedSeconds();
  const std::string dataset_path =
      options.workdir + "/sylvine-" + std::to_string(index) + ".afpd";
  Status written = WriteSharedDataset(dataset_path, data);
  AUTOFP_CHECK(written.ok()) << written.ToString();
  // The local evaluator splits exactly as each worker's (the CLI's
  // MakeEvaluator with --seed kSearchSeed), so local rescoring sees the
  // workers' data.
  Rng split_rng(kSearchSeed);
  TrainValidSplit split = SplitTrainValid(data, 0.8, &split_rng);
  rep.evaluator = std::make_unique<PipelineEvaluator>(
      std::move(split.train), std::move(split.valid),
      ModelConfig::Defaults(ModelKind::kMlp));
  DistOptions dist_options;
  dist_options.num_workers = kWorkers;
  dist_options.expected_dataset_fingerprint = DatasetFingerprint(data);
  auto dist = std::make_unique<DistributedEvaluator>(
      rep.evaluator.get(),
      ExecWorkerSpawner({AUTOFP_E2E_CLI, "--dist-worker", "--worker-dataset",
                         dataset_path, "--model", "MLP", "--seed",
                         std::to_string(kSearchSeed)}),
      dist_options);
  Stopwatch spawn;
  dist->Start();
  rep.spawn_s = spawn.ElapsedSeconds();
  rep.setup_s = setup.ElapsedSeconds();
  if (kind != RepKind::kSetupOnly) {
    SearchOptions search;
    search.budget = Budget::Evaluations(budget);
    search.seed = kSearchSeed;
    search.num_workers = kWorkers;
    RunMeasuredSearch("RS", dist.get(), search, tracer, &rep);
  }
  dist->Shutdown();
  rep.dist = dist->stats();
  dist.reset();
  std::filesystem::remove(dataset_path);
  if (kind == RepKind::kSetupOnly) rep.evaluator.reset();
  return rep;
}

}  // namespace

void RunSearchEvoPrep(const RunOptions& options, Tracer* tracer,
                      Report* report) {
  const long budget = options.quick ? 12 : kEvoBudget;
  std::vector<SearchRep> reps =
      RepeatSearch(options, [&](int index, RepKind kind) {
        return EvoRep(options, tracer, index, kind, budget);
      });
  ReportSearch(options, reps, budget, kEvoThreads, report);
  if (options.traced()) {
    const SearchRep& rep = LastTraced(reps);
    ReplayPipelines(options.seed, ReplayJournal(options, rep, report), rep,
                    report);
  }
}

void RunSearchRsWorkersTrain(const RunOptions& options, Tracer* tracer,
                             Report* report) {
  const long budget = options.quick ? 8 : kWorkersBudget;
  std::vector<SearchRep> reps =
      RepeatSearch(options, [&](int index, RepKind kind) {
        return WorkersRep(options, tracer, index, kind, budget);
      });
  for (const SearchRep& rep : reps) {
    if (rep.kind == RepKind::kSetupOnly) continue;
    // Every evaluation must have run on a worker process: a local
    // fallback would silently change what is measured.
    report->Check(rep.dist.workers_spawned == kWorkers &&
                      rep.dist.hello_rejects == 0 &&
                      rep.dist.worker_crashes == 0 &&
                      rep.dist.local_fallback_evals == 0 &&
                      rep.dist.worker_lost_evals == 0,
                  "worker fleet was not healthy (spawned " +
                      std::to_string(rep.dist.workers_spawned) +
                      ", crashes " + std::to_string(rep.dist.worker_crashes) +
                      ", local fallbacks " +
                      std::to_string(rep.dist.local_fallback_evals) + ")");
  }
  ReportSearch(options, reps, budget, /*pool_threads=*/0, report);
  if (options.traced()) {
    const SearchRep& rep = LastTraced(reps);
    std::vector<std::string> pipelines;
    for (const auto& evaluated : rep.evaluated) {
      pipelines.push_back(evaluated.pipeline);
    }
    ReplayPipelines(options.seed, std::move(pipelines), rep, report);
  }
}

}  // namespace e2e
