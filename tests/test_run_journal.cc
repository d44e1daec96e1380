/// Tests of the durable-run subsystem: journal round-trip, corruption
/// handling (torn tail accepted, mid-file corruption/version/fingerprint
/// mismatches rejected with typed errors), replay semantics, and resumed
/// failure/quarantine bookkeeping. Kill-point resume of real searches is
/// one mode of the exactness oracle (tests/test_exactness.cc).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_journal.h"
#include "core/search_framework.h"
#include "core/search_space.h"
#include "data/synthetic.h"
#include "search/registry.h"
#include "util/fs.h"
#include "util/random.h"

namespace autofp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JournalRecord SampleRecord(int index) {
  JournalRecord record;
  record.pipeline = index % 2 == 0 ? "StandardScaler -> Binarizer"
                                   : "Normalizer";
  record.budget_fraction = index % 3 == 0 ? 1.0 : 0.25;
  record.seed = 0x9000 + static_cast<uint64_t>(index);
  record.accuracy = 0.5 + 0.01 * index;
  record.failure = index == 2 ? EvalFailure::kNonFiniteOutput
                              : EvalFailure::kNone;
  record.status_code =
      index == 2 ? static_cast<int>(StatusCode::kOutOfRange) : 0;
  record.status_message = index == 2 ? "rigged non-finite" : "";
  record.attempts = 1 + index % 2;
  record.elapsed_seconds = 0.125 * index;
  record.prep_seconds = 0.01 * index;
  record.train_seconds = 0.02 * index;
  return record;
}

std::string WriteSampleJournal(const std::string& name, int num_records,
                               uint64_t options_fp = 11,
                               uint64_t dataset_fp = 22) {
  std::string path = TempPath(name);
  RunJournalOptions options;
  options.meta = "test journal";
  auto writer =
      RunJournalWriter::Create(path, options_fp, dataset_fp, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(writer.value()->Append(SampleRecord(i)).ok());
  }
  return path;
}

// ---------------------------------------------------------------------------
// Round-trip and header validation.

TEST(RunJournal, RoundTripPreservesEveryField) {
  std::string path = WriteSampleJournal("roundtrip.journal", 4);
  JournalReadResult read = ReadRunJournal(path);
  ASSERT_TRUE(read.ok()) << read.status.ToString();
  EXPECT_EQ(read.header.version, kRunJournalVersion);
  EXPECT_EQ(read.header.options_fingerprint, 11u);
  EXPECT_EQ(read.header.dataset_fingerprint, 22u);
  EXPECT_EQ(read.header.meta, "test journal");
  EXPECT_EQ(read.dropped_tail_bytes, 0u);
  ASSERT_EQ(read.records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const JournalRecord expected = SampleRecord(i);
    const JournalRecord& actual = read.records[i];
    EXPECT_EQ(actual.pipeline, expected.pipeline);
    EXPECT_DOUBLE_EQ(actual.budget_fraction, expected.budget_fraction);
    EXPECT_EQ(actual.seed, expected.seed);
    EXPECT_DOUBLE_EQ(actual.accuracy, expected.accuracy);
    EXPECT_EQ(actual.failure, expected.failure);
    EXPECT_EQ(actual.status_code, expected.status_code);
    EXPECT_EQ(actual.status_message, expected.status_message);
    EXPECT_EQ(actual.attempts, expected.attempts);
    EXPECT_DOUBLE_EQ(actual.elapsed_seconds, expected.elapsed_seconds);
    EXPECT_DOUBLE_EQ(actual.prep_seconds, expected.prep_seconds);
    EXPECT_DOUBLE_EQ(actual.train_seconds, expected.train_seconds);
  }
}

TEST(RunJournal, EvaluationRecordRoundTrip) {
  Evaluation evaluation;
  evaluation.pipeline =
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler,
                               PreprocessorKind::kBinarizer});
  evaluation.accuracy = 0.875;
  evaluation.budget_fraction = 0.5;
  evaluation.failure = EvalFailure::kModelDiverged;
  evaluation.status = Status::Internal("diverged");
  evaluation.attempts = 2;
  evaluation.timing.prep_seconds = 0.25;
  JournalRecord record = MakeJournalRecord(evaluation, 77, 1.5);
  EXPECT_EQ(record.seed, 77u);
  EXPECT_DOUBLE_EQ(record.elapsed_seconds, 1.5);
  Evaluation back = EvaluationFromRecord(record);
  EXPECT_EQ(back.pipeline, evaluation.pipeline);
  EXPECT_DOUBLE_EQ(back.accuracy, evaluation.accuracy);
  EXPECT_DOUBLE_EQ(back.budget_fraction, evaluation.budget_fraction);
  EXPECT_EQ(back.failure, evaluation.failure);
  EXPECT_EQ(back.status.code(), StatusCode::kInternal);
  EXPECT_EQ(back.status.message(), "diverged");
  EXPECT_EQ(back.attempts, 2);
  EXPECT_DOUBLE_EQ(back.timing.prep_seconds, 0.25);
}

TEST(RunJournal, MissingFileIsIoError) {
  JournalReadResult read = ReadRunJournal(TempPath("does_not_exist.journal"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.error, JournalError::kIoError);
}

TEST(RunJournal, ReadFileBytesReadsWholeFilesAndTypesMissingOnes) {
  const std::string path = TempPath("read_file_bytes.bin");
  std::string want(100003, '\0');
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<char>(i * 131 + 7);
  }
  WriteFileBytes(path, want);
  std::string got = "stale";
  ASSERT_TRUE(autofp::ReadFileBytes(path, &got).ok());
  EXPECT_EQ(got, want);

  WriteFileBytes(path, "");
  ASSERT_TRUE(autofp::ReadFileBytes(path, &got).ok());
  EXPECT_TRUE(got.empty());

  Status missing =
      autofp::ReadFileBytes(TempPath("does_not_exist.bin"), &got);
  EXPECT_EQ(missing.code(), StatusCode::kIoError);
}

TEST(RunJournal, BadMagicRejected) {
  std::string path = TempPath("bad_magic.journal");
  WriteFileBytes(path, "definitely not a journal file");
  JournalReadResult read = ReadRunJournal(path);
  EXPECT_EQ(read.error, JournalError::kBadMagic);
}

TEST(RunJournal, VersionMismatchRejected) {
  std::string path = WriteSampleJournal("version.journal", 2);
  std::string bytes = ReadFileBytes(path);
  // The u32 version sits right after the 4-byte magic.
  bytes[4] = static_cast<char>(kRunJournalVersion + 1);
  WriteFileBytes(path, bytes);
  JournalReadResult read = ReadRunJournal(path);
  EXPECT_EQ(read.error, JournalError::kVersionMismatch);
  EXPECT_EQ(read.header.version, kRunJournalVersion + 1);
}

TEST(RunJournal, HeaderCorruptionRejected) {
  std::string path = WriteSampleJournal("header_crc.journal", 1);
  std::string bytes = ReadFileBytes(path);
  bytes[10] = static_cast<char>(bytes[10] ^ 0x40);  // inside a fingerprint.
  WriteFileBytes(path, bytes);
  EXPECT_EQ(ReadRunJournal(path).error, JournalError::kCorruptHeader);
}

TEST(RunJournal, FingerprintMismatchIsTypedError) {
  std::string path = WriteSampleJournal("fingerprint.journal", 1, 11, 22);
  JournalReadResult read = ReadRunJournal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ValidateJournalHeader(read.header, 11, 22), JournalError::kNone);
  Status detail;
  EXPECT_EQ(ValidateJournalHeader(read.header, 99, 22, &detail),
            JournalError::kOptionsMismatch);
  EXPECT_FALSE(detail.ok());
  EXPECT_EQ(ValidateJournalHeader(read.header, 11, 99, &detail),
            JournalError::kDatasetMismatch);
}

// ---------------------------------------------------------------------------
// Corruption: torn tails are recovered, mid-file damage is rejected.

TEST(RunJournal, TruncatedTailRecordIsDroppedWithoutDataLoss) {
  std::string path = WriteSampleJournal("torn.journal", 3);
  std::string bytes = ReadFileBytes(path);
  for (size_t cut : {1u, 7u, 20u}) {
    WriteFileBytes(path, bytes.substr(0, bytes.size() - cut));
    JournalReadResult read = ReadRunJournal(path);
    ASSERT_TRUE(read.ok()) << "cut " << cut << ": " << read.status.ToString();
    EXPECT_EQ(read.records.size(), 2u) << "cut " << cut;
    EXPECT_GT(read.dropped_tail_bytes, 0u);
    EXPECT_EQ(read.records[1].pipeline, SampleRecord(1).pipeline);
  }
}

TEST(RunJournal, CrcMismatchInFinalRecordIsATornTail) {
  std::string path = WriteSampleJournal("tail_crc.journal", 3);
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 6] ^= 0x01;  // inside the last record's payload.
  WriteFileBytes(path, bytes);
  JournalReadResult read = ReadRunJournal(path);
  ASSERT_TRUE(read.ok()) << read.status.ToString();
  EXPECT_EQ(read.records.size(), 2u);
  EXPECT_GT(read.dropped_tail_bytes, 0u);
}

TEST(RunJournal, CrcMismatchMidFileRejected) {
  std::string path = WriteSampleJournal("midfile.journal", 3);
  std::string bytes = ReadFileBytes(path);
  // Find the first record's payload: it starts right after the header,
  // which ends after meta + CRC. Flip a byte a little past that point.
  JournalReadResult intact = ReadRunJournal(path);
  ASSERT_TRUE(intact.ok());
  // Header = magic(4) + version(4) + fps(16) + meta len(4)+bytes + crc(4).
  size_t header_size = 4 + 4 + 16 + 4 + intact.header.meta.size() + 4;
  bytes[header_size + 12] ^= 0x10;  // inside record 0's payload.
  WriteFileBytes(path, bytes);
  JournalReadResult read = ReadRunJournal(path);
  EXPECT_EQ(read.error, JournalError::kCorruptRecord);
  EXPECT_FALSE(read.status.ok());
}

TEST(RunJournal, OversizedLengthFieldIsCorruptionNotATornTail) {
  // A torn append leaves a *short* length field; a fully-present garbage
  // length (flipped bit) is corruption. Classifying it as a torn tail
  // would silently drop the two intact records that follow.
  std::string path = WriteSampleJournal("oversized_len.journal", 3);
  std::string bytes = ReadFileBytes(path);
  JournalReadResult intact = ReadRunJournal(path);
  ASSERT_TRUE(intact.ok());
  // Header = magic(4) + version(4) + fps(16) + meta len(4)+bytes + crc(4);
  // record 0's u32 length field sits immediately after.
  size_t header_size = 4 + 4 + 16 + 4 + intact.header.meta.size() + 4;
  uint32_t huge = 0x7F000000u;
  std::memcpy(bytes.data() + header_size, &huge, sizeof(huge));
  WriteFileBytes(path, bytes);
  JournalReadResult read = ReadRunJournal(path);
  EXPECT_EQ(read.error, JournalError::kCorruptRecord);
  EXPECT_FALSE(read.status.ok());
}

TEST(RunJournal, OpenForAppendDropsTornTail) {
  std::string path = WriteSampleJournal("append.journal", 3);
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 3));
  auto writer = RunJournalWriter::OpenForAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->Append(SampleRecord(7)).ok());
  JournalReadResult read = ReadRunJournal(path);
  ASSERT_TRUE(read.ok()) << read.status.ToString();
  ASSERT_EQ(read.records.size(), 3u);  // 2 intact + 1 fresh, torn one gone.
  EXPECT_EQ(read.dropped_tail_bytes, 0u);
  EXPECT_EQ(read.records[2].seed, SampleRecord(7).seed);
}

// ---------------------------------------------------------------------------
// Replay semantics.

TEST(RunJournalReplay, ServesFifoPerRequestIdentity) {
  std::vector<JournalRecord> records;
  for (int i = 0; i < 2; ++i) {
    JournalRecord record;
    record.pipeline = "Normalizer";
    record.budget_fraction = 1.0;
    record.accuracy = 0.1 * (i + 1);
    records.push_back(record);
  }
  RunJournalReplay replay(records);
  EXPECT_EQ(replay.remaining(), 2u);
  EXPECT_FALSE(replay.Take("Binarizer", 1.0).has_value());
  EXPECT_FALSE(replay.Take("Normalizer", 0.5).has_value());
  auto first = replay.Take("Normalizer", 1.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->accuracy, 0.1);
  auto second = replay.Take("Normalizer", 1.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->accuracy, 0.2);
  EXPECT_FALSE(replay.Take("Normalizer", 1.0).has_value());
  EXPECT_EQ(replay.remaining(), 0u);
}

TEST(RunJournalReplay, DeadlineFailuresAreNotReplayable) {
  // Wall-clock deadline outcomes depend on the original machine/moment,
  // not the pipeline: they re-run live on resume (DESIGN.md).
  JournalRecord deadline;
  deadline.pipeline = "Normalizer";
  deadline.failure = EvalFailure::kDeadlineExceeded;
  RunJournalReplay replay({deadline});
  EXPECT_EQ(replay.remaining(), 0u);
  EXPECT_EQ(replay.dropped_deadline_records(), 1u);
  EXPECT_FALSE(replay.Take("Normalizer", 1.0).has_value());
}

// ---------------------------------------------------------------------------
// Crash-resume bookkeeping through SearchContext.

/// Deterministic landscape that fails one specific pipeline permanently
/// and counts evaluator calls, so tests can assert both that quarantine
/// bookkeeping replays identically and that replay skips the evaluator.
class CountingRiggedEvaluator : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    if (!request.pipeline.empty() &&
        request.pipeline.steps[0].kind == PreprocessorKind::kNormalizer) {
      evaluation.failure = EvalFailure::kNonFiniteOutput;
      evaluation.status = Status::OutOfRange("rigged non-finite");
      evaluation.accuracy = kPenaltyAccuracy;
      return evaluation;
    }
    double score = 0.3;
    for (const PreprocessorConfig& step : request.pipeline.steps) {
      if (step.kind == PreprocessorKind::kBinarizer) score += 0.15;
    }
    score -= 0.02 * static_cast<double>(request.pipeline.size());
    evaluation.accuracy = std::min(score, 1.0);
    return evaluation;
  }
  double BaselineAccuracy() override { return 0.3; }
  long calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> calls_{0};
};

/// Bitwise equality: a resumed history must reproduce every bit, which
/// EXPECT_DOUBLE_EQ's 4-ULP window does not check.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " != " << b << std::defaultfloat;
}

void ExpectSameHistory(const std::vector<Evaluation>& expected,
                       const std::vector<Evaluation>& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].pipeline.Key(), expected[i].pipeline.Key())
        << context << " entry " << i;
    EXPECT_TRUE(BitEqual(actual[i].accuracy, expected[i].accuracy))
        << context << " entry " << i;
    EXPECT_TRUE(
        BitEqual(actual[i].budget_fraction, expected[i].budget_fraction))
        << context << " entry " << i;
    EXPECT_EQ(actual[i].failure, expected[i].failure)
        << context << " entry " << i;
    EXPECT_EQ(actual[i].attempts, expected[i].attempts)
        << context << " entry " << i;
  }
}

TEST(CrashResume, QuarantineAndFailureCountersReplayIdentically) {
  SearchSpace space = SearchSpace::Default();
  SearchOptions base_options{Budget::Evaluations(50), 21};

  std::string path = TempPath("counters.journal");
  long ref_failures = 0, ref_quarantined = 0, ref_hits = 0, ref_successes = 0;
  std::vector<Evaluation> ref_history;
  {
    CountingRiggedEvaluator evaluator;
    auto algorithm = MakeSearchAlgorithm("RS").value();
    auto writer = RunJournalWriter::Create(path, 1, 2);
    ASSERT_TRUE(writer.ok());
    SearchOptions options = base_options;
    options.journal = writer.value().get();
    SearchContext context(&space, &evaluator, options);
    algorithm->Initialize(&context);
    while (!context.BudgetExhausted()) algorithm->Iterate(&context);
    ref_failures = context.num_failures();
    ref_quarantined = context.num_quarantined();
    ref_hits = context.num_quarantine_hits();
    ref_successes = context.num_successes();
    ref_history = context.history();
    ASSERT_GT(ref_quarantined, 0) << "landscape should quarantine Normalizer";
  }
  JournalReadResult full = ReadRunJournal(path);
  ASSERT_TRUE(full.ok());
  std::vector<JournalRecord> prefix(full.records.begin(),
                                    full.records.begin() + 12);
  RunJournalReplay replay(prefix);
  CountingRiggedEvaluator evaluator;
  auto algorithm = MakeSearchAlgorithm("RS").value();
  SearchOptions options = base_options;
  options.replay = &replay;
  SearchContext context(&space, &evaluator, options);
  algorithm->Initialize(&context);
  while (!context.BudgetExhausted()) algorithm->Iterate(&context);
  EXPECT_EQ(context.num_failures(), ref_failures);
  EXPECT_EQ(context.num_quarantined(), ref_quarantined);
  EXPECT_EQ(context.num_quarantine_hits(), ref_hits);
  EXPECT_EQ(context.num_successes(), ref_successes);
  ExpectSameHistory(ref_history, context.history(), "counters");
}

TEST(CrashResume, FullReplayNeverTouchesTheEvaluator) {
  SearchSpace space = SearchSpace::Default();
  SearchOptions base_options{Budget::Evaluations(40), 5};
  std::string path = TempPath("full_replay.journal");
  {
    CountingRiggedEvaluator evaluator;
    auto algorithm = MakeSearchAlgorithm("RS").value();
    auto writer = RunJournalWriter::Create(path, 1, 2);
    ASSERT_TRUE(writer.ok());
    SearchOptions options = base_options;
    options.journal = writer.value().get();
    SearchContext context(&space, &evaluator, options);
    algorithm->Initialize(&context);
    while (!context.BudgetExhausted()) algorithm->Iterate(&context);
  }
  JournalReadResult full = ReadRunJournal(path);
  ASSERT_TRUE(full.ok());
  RunJournalReplay replay(full.records);
  CountingRiggedEvaluator evaluator;
  auto algorithm = MakeSearchAlgorithm("RS").value();
  SearchOptions options = base_options;
  options.replay = &replay;
  SearchContext context(&space, &evaluator, options);
  algorithm->Initialize(&context);
  while (!context.BudgetExhausted()) algorithm->Iterate(&context);
  EXPECT_EQ(evaluator.calls(), 0);
  EXPECT_EQ(replay.remaining(), 0u);
}

TEST(CrashResume, JournaledElapsedSharesAreFiniteAndRestoreTimeBudget) {
  // Regression: the per-record elapsed share was divided by the size of a
  // moved-from vector (always 0), journaling inf into every record; a
  // resumed time-budgeted run then read elapsed_seconds() == inf and
  // stopped before its first evaluation.
  SearchSpace space = SearchSpace::Default();
  std::string path = TempPath("finite_elapsed.journal");
  {
    CountingRiggedEvaluator evaluator;
    auto writer = RunJournalWriter::Create(path, 1, 2);
    ASSERT_TRUE(writer.ok());
    SearchOptions options{Budget::Evaluations(16), 13};
    options.journal = writer.value().get();
    SearchContext context(&space, &evaluator, options);
    Rng rng(13);
    std::vector<PipelineSpec> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(space.SampleUniform(&rng));
    context.EvaluateBatch(batch);
    context.EvaluateBatch(batch);
  }
  JournalReadResult read = ReadRunJournal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_FALSE(read.records.empty());
  for (const JournalRecord& record : read.records) {
    EXPECT_TRUE(std::isfinite(record.elapsed_seconds))
        << record.pipeline << ": " << record.elapsed_seconds;
    EXPECT_GE(record.elapsed_seconds, 0.0);
  }
  // A resume under a generous time budget must not start exhausted.
  RunJournalReplay replay(read.records);
  CountingRiggedEvaluator evaluator;
  SearchOptions options{Budget::Seconds(3600.0), 13};
  options.replay = &replay;
  SearchContext context(&space, &evaluator, options);
  EXPECT_FALSE(context.BudgetExhausted());
  Rng rng(13);
  std::vector<PipelineSpec> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(space.SampleUniform(&rng));
  context.EvaluateBatch(batch);
  EXPECT_GT(context.num_replayed(), 0);
  EXPECT_TRUE(std::isfinite(context.elapsed_seconds()));
  EXPECT_FALSE(context.BudgetExhausted());
}

// ---------------------------------------------------------------------------
// Graceful stop: the flag reads as budget exhaustion at the next boundary.

TEST(GracefulStop, StopFlagEndsSearchAtEvaluationBoundary) {
  SearchSpace space = SearchSpace::Default();
  CountingRiggedEvaluator evaluator;
  volatile std::sig_atomic_t stop = 0;
  SearchOptions options{Budget::Evaluations(1000), 3};
  options.stop_flag = &stop;
  SearchContext context(&space, &evaluator, options);
  Rng rng(3);
  PipelineSpec pipeline = space.SampleUniform(&rng);
  EXPECT_TRUE(context.Evaluate(pipeline).has_value());
  stop = 1;
  EXPECT_TRUE(context.BudgetExhausted());
  EXPECT_TRUE(context.interrupted());
  EXPECT_FALSE(context.Evaluate(pipeline).has_value());
  EXPECT_EQ(context.num_evaluations(), 1);
}

TEST(GracefulStop, RunSearchReportsInterrupted) {
  SearchSpace space = SearchSpace::Default();
  CountingRiggedEvaluator evaluator;
  volatile std::sig_atomic_t stop = 1;  // stop before the first iteration.
  SearchOptions options{Budget::Evaluations(1000), 3};
  options.stop_flag = &stop;
  auto algorithm = MakeSearchAlgorithm("RS").value();
  SearchResult result = RunSearch(algorithm.get(), &evaluator, space, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.num_evaluations, 0);
  EXPECT_EQ(result.num_successes, 0);
}

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(Fingerprints, SearchOptionsFingerprintIgnoresEngineKnobs) {
  SearchOptions a{Budget::Evaluations(100), 42};
  SearchOptions b = a;
  b.num_threads = 8;
  b.cache_bytes = 1 << 20;
  // History is thread/cache-invariant, so resume across them is legal.
  EXPECT_EQ(SearchOptionsFingerprint(a), SearchOptionsFingerprint(b));
  SearchOptions c = a;
  c.seed = 43;
  EXPECT_NE(SearchOptionsFingerprint(a), SearchOptionsFingerprint(c));
  SearchOptions d = a;
  d.budget = Budget::Evaluations(101);
  EXPECT_NE(SearchOptionsFingerprint(a), SearchOptionsFingerprint(d));
}

TEST(Fingerprints, DatasetFingerprintSeesContent) {
  SyntheticSpec spec;
  spec.name = "fp";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = 40;
  spec.cols = 3;
  spec.num_classes = 2;
  spec.seed = 9;
  Dataset a = GenerateSynthetic(spec);
  Dataset b = GenerateSynthetic(spec);
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));
  b.features(0, 0) += 1.0;
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(b));
}

}  // namespace
}  // namespace autofp
