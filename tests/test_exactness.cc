/// The exactness oracle: a seeded search is a pure function of its inputs
/// at any thread count, worker count, resume point and SIMD path.
///
/// For each registered search algorithm (AllSearchAlgorithmNames(), the
/// 15 of paper Table 4) and for the two-step search (paper Figure 9), one
/// seeded, journaled, fault-injected XGB search on suite:blood_syn runs on
/// one thread (the reference) and under each other mode. A mode passes
/// only if its canonical journal listing (JournalListing) plus one result
/// line is byte-identical to the reference's. XGB is the model because its
/// SIMD primitives (Fill, LowerBoundIndex) are all bit-exact; LR and MLP
/// use the reassociating simd::Dot. The MLP and LSTM surrogates of PMNE, PME,
/// PLNE and PLE use it too: they pass the scalar mode only because at
/// this seed its low-bit differences flip no pick.
///
/// One LR configuration, TEVO_H with LR as the model, runs in every mode
/// but scalar. LR's epoch splits its forward rows and its gradient sum
/// over idle pool workers, which threads4 exercises. Its logits sum in
/// simd::Dot's vector order, which forced scalar replaces with
/// DotScalar's, so LR's weights differ in low bits between the two paths.
/// At this seed that flips no validation prediction, so scalar would pass
/// too, but only by luck; it joins when Dot sums in one order on every
/// backend (ROADMAP item 9).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/auto_fp.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "search/registry.h"
#include "search/two_step.h"
#include "util/simd.h"

namespace autofp {
namespace {

constexpr uint64_t kSeed = 7;

enum class Mode {
  kThreads1,  ///< the reference.
  kThreads4,  ///< 4 pool threads with the prefix cache and result memo on.
  kWorkers3,  ///< a DistributedEvaluator over 3 forked worker processes.
  kResume3,   ///< resumed from a journal holding the first 3 records.
  kResume17,  ///< resumed from the first 17 records plus a torn 18th.
  kScalar,    ///< every kernel on its scalar path (ScopedForceScalar).
};

const char* ModeName(Mode mode) {
  constexpr const char* kNames[] = {"threads1", "threads4", "workers3",
                                    "resume3",  "resume17", "scalar"};
  return kNames[static_cast<int>(mode)];
}

void PrintTo(Mode mode, std::ostream* os) { *os << ModeName(mode); }

/// Records a resume mode starts from (0 for the other modes).
size_t KillPoint(Mode mode) {
  return mode == Mode::kResume3 ? 3 : mode == Mode::kResume17 ? 17 : 0;
}

struct SearchRun {
  std::string canonical;  ///< journal listing + result line.
  std::vector<JournalRecord> records;
  long evaluator_calls = 0;  ///< evaluator attempts, retries included.
  SearchResult result;
};

std::string ResultLine(const SearchResult& result) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "result best=%s acc=%.17g evaluations=%ld failures=%ld "
                "retries=%ld quarantined=%ld quarantine_hits=%ld\n",
                result.best_pipeline.ToString().c_str(), result.best_accuracy,
                result.num_evaluations, result.num_failures,
                result.num_retries, result.num_quarantined,
                result.num_quarantine_hits);
  return line;
}

/// Leaves at `path` what a crash after `kill_point` durable appends of
/// `records` leaves behind; with `torn_tail`, also half of the next one.
void WriteCrashedJournal(const std::string& path, uint64_t options_fp,
                         uint64_t dataset_fp, const RunJournalOptions& meta,
                         const std::vector<JournalRecord>& records,
                         size_t kill_point, bool torn_tail) {
  AUTOFP_CHECK_GT(records.size(), kill_point);
  auto writer = RunJournalWriter::Create(path, options_fp, dataset_fp, meta);
  AUTOFP_CHECK(writer.ok()) << writer.status().ToString();
  for (size_t i = 0; i < kill_point; ++i) {
    AUTOFP_CHECK(writer.value()->Append(records[i]).ok());
  }
  if (!torn_tail) return;
  const auto intact = std::filesystem::file_size(path);
  AUTOFP_CHECK(writer.value()->Append(records[kill_point]).ok());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, intact + (full - intact) / 2);
}

/// The two-step configuration: PBT (the paper's choice) in rounds of 15
/// evaluations over the low-cardinality parameter space. The budget of 40
/// makes three RunSearch calls over one evaluator and one journal (in
/// threads4, one prefix cache and a fresh result memo per round), and
/// resume17's kill point falls in the second round.
constexpr char kTwoStep[] = "TwoStep";

/// The LR configuration: TEVO_H, the paper's leading search, with LR
/// instead of XGB as the model.
constexpr char kTevoLr[] = "TEVO_H_LR";

/// Runs `algorithm` (or kTwoStep, or kTevoLr) under `mode` as `autofp
/// --data suite:blood_syn --model XGB --budget 40 --fault-rate 0.15
/// --max-retries 2 --journal FILE` would (`--model LR` for kTevoLr; the
/// CLI's split and fault-injector seed), and checks what the mode itself
/// promises. Resume modes start from `reference`'s records and resume the
/// way the CLI does.
SearchRun RunMode(const std::string& algorithm, uint64_t seed, Mode mode,
                  const SearchRun* reference = nullptr) {
  const Dataset dataset = GetSuiteDataset("blood_syn").value();
  Rng rng(seed);
  TrainValidSplit split = SplitTrainValid(dataset, 0.8, &rng);
  const bool lr = algorithm == kTevoLr;
  PipelineEvaluator evaluator(
      split.train, split.valid,
      ModelConfig::Defaults(lr ? ModelKind::kLogisticRegression
                               : ModelKind::kXgboost));
  FaultInjectorConfig injector;
  injector.fault_rate = 0.15;
  injector.seed = seed ^ 0x5EEDFA17;
  evaluator.AttachFaultInjector(injector);

  SearchOptions options{Budget::Evaluations(40), seed};
  options.fault_policy.max_retries = 2;
  const uint64_t options_fp = SearchOptionsFingerprint(options);
  const uint64_t dataset_fp = DatasetFingerprint(dataset);
  RunJournalOptions meta;
  meta.meta = "exactness " + algorithm;
  const std::string path = ::testing::TempDir() + "/exactness_" +
                           std::to_string(::getpid()) + "_" + algorithm +
                           "_" + ModeName(mode) + ".journal";

  std::unique_ptr<RunJournalWriter> writer;
  std::unique_ptr<RunJournalReplay> replay;
  const size_t kill_point = KillPoint(mode);
  if (kill_point > 0) {
    WriteCrashedJournal(path, options_fp, dataset_fp, meta,
                        reference->records, kill_point,
                        /*torn_tail=*/mode == Mode::kResume17);
    JournalReadResult read = ReadRunJournal(path);
    EXPECT_TRUE(read.ok()) << read.status.message();
    EXPECT_EQ(read.records.size(), kill_point);
    EXPECT_EQ(read.dropped_tail_bytes > 0, mode == Mode::kResume17);
    EXPECT_EQ(ValidateJournalHeader(read.header, options_fp, dataset_fp),
              JournalError::kNone);
    replay = std::make_unique<RunJournalReplay>(read.records);
    writer = RunJournalWriter::OpenForAppend(path, meta).value();
  } else {
    writer =
        RunJournalWriter::Create(path, options_fp, dataset_fp, meta).value();
  }
  options.journal = writer.get();
  options.replay = replay.get();
  std::shared_ptr<TransformCache> prefix_cache;
  if (mode == Mode::kThreads4) {
    options.num_threads = 4;
    options.cache_bytes = 16u << 20;
    prefix_cache = std::make_shared<TransformCache>(options.cache_bytes);
    evaluator.AttachTransformCache(prefix_cache);
  }
  std::unique_ptr<DistributedEvaluator> dist;
  if (mode == Mode::kWorkers3) {
    DistOptions dist_options;
    dist_options.num_workers = 3;
    dist_options.expected_dataset_fingerprint = dataset_fp;
    dist = std::make_unique<DistributedEvaluator>(
        &evaluator,
        InProcessWorkerSpawner([&evaluator, dataset_fp](int fd, int) {
          return RunDistWorker(fd, dataset_fp, &evaluator, {});
        }),
        dist_options);
    options.num_workers = 3;
  }

  EvaluatorInterface* search_evaluator =
      dist != nullptr ? static_cast<EvaluatorInterface*>(dist.get())
                      : &evaluator;
  SearchRun run;
  {
    simd::ScopedForceScalar scalar(mode == Mode::kScalar);
    if (algorithm == kTwoStep) {
      TwoStepConfig two_step;
      two_step.inner_budget = Budget::Evaluations(15);
      run.result = RunTwoStep(two_step, search_evaluator,
                              ParameterSpace::LowCardinality(), options);
    } else {
      auto search = MakeSearchAlgorithm(lr ? "TEVO_H" : algorithm).value();
      run.result = RunSearch(search.get(), search_evaluator,
                             SearchSpace::Default(), options);
    }
  }
  writer.reset();
  run.evaluator_calls = evaluator.num_evaluations();
  JournalReadResult read = ReadRunJournal(path);
  EXPECT_TRUE(read.ok()) << read.status.message();
  run.canonical = JournalListing(read) + ResultLine(run.result);
  run.records = std::move(read.records);
  std::filesystem::remove(path);

  if (prefix_cache != nullptr) {
    EXPECT_EQ(run.result.num_threads, 4);
    EXPECT_GT(prefix_cache->stats().hits + prefix_cache->stats().misses, 0);
    EXPECT_GT(run.result.result_cache_misses, 0);
  }
  if (dist != nullptr) {
    // The workers, not the coordinator's fallback, did the evaluating.
    dist->Shutdown();
    EXPECT_GT(dist->stats().leases_issued, 0);
    EXPECT_EQ(dist->stats().worker_crashes, 0);
    EXPECT_EQ(dist->stats().local_fallback_evals, 0);
  }
  if (replay != nullptr) {
    EXPECT_EQ(run.result.num_replayed, static_cast<long>(kill_point));
    EXPECT_EQ(replay->remaining(), 0u);
    // Replay spares the evaluator exactly the journaled attempts.
    long spared = 0;
    for (size_t i = 0; i < kill_point; ++i) {
      spared += reference->records[i].attempts;
    }
    EXPECT_EQ(run.evaluator_calls, reference->evaluator_calls - spared);
  }
  return run;
}

std::vector<std::string> OracleConfigs() {
  std::vector<std::string> configs = AllSearchAlgorithmNames();
  configs.push_back(kTwoStep);
  return configs;
}

const std::vector<std::string> kConfigs = OracleConfigs();

class Exactness
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

std::string ExactnessName(
    const ::testing::TestParamInfo<Exactness::ParamType>& info) {
  return std::get<0>(info.param) + "_" + ModeName(std::get<1>(info.param));
}

TEST_P(Exactness, MatchesOneThreadRun) {
  const auto [algorithm, mode] = GetParam();
  const SearchRun reference = RunMode(algorithm, kSeed, Mode::kThreads1);
  const SearchRun run = RunMode(algorithm, kSeed, mode, &reference);
  EXPECT_EQ(run.canonical, reference.canonical);
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, Exactness,
    ::testing::Combine(::testing::ValuesIn(kConfigs),
                       ::testing::Values(Mode::kThreads4, Mode::kWorkers3,
                                         Mode::kResume3, Mode::kResume17,
                                         Mode::kScalar)),
    ExactnessName);

INSTANTIATE_TEST_SUITE_P(
    OracleLr, Exactness,
    ::testing::Combine(::testing::Values(kTevoLr),
                       ::testing::Values(Mode::kThreads4, Mode::kWorkers3,
                                         Mode::kResume3, Mode::kResume17)),
    ExactnessName);

/// The oracle is not vacuous: faults fire and are retried, HYPERBAND
/// trains on partial budgets, and the listing sees the seed.
class ExactnessReference : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactnessReference, IsNonVacuous) {
  const std::string algorithm = GetParam();
  const SearchRun reference = RunMode(algorithm, kSeed, Mode::kThreads1);
  EXPECT_GE(reference.result.num_retries, 1);
  EXPECT_GE(reference.result.num_failures, 1);
  EXPECT_GT(reference.result.num_successes, 0);
  if (algorithm == "HYPERBAND") {
    bool partial = false;
    for (const JournalRecord& record : reference.records) {
      partial = partial || record.budget_fraction < 1.0;
    }
    EXPECT_TRUE(partial);
  }
  EXPECT_NE(RunMode(algorithm, kSeed + 1, Mode::kThreads1).canonical,
            reference.canonical);
}

INSTANTIATE_TEST_SUITE_P(Oracle, ExactnessReference,
                         ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

INSTANTIATE_TEST_SUITE_P(OracleLr, ExactnessReference,
                         ::testing::Values(kTevoLr),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace autofp
