/// Tests of the distributed-search stack (src/dist/): the wire codec's
/// round trips and rejection of malformed frames, the lease table's
/// (id, generation) staleness discipline, the shared-dataset hand-off
/// file's corruption taxonomy, and the DistributedEvaluator end to end
/// over real forked workers (InProcessWorkerSpawner) — including the
/// headline robustness property: worker crashes, stragglers and
/// fingerprint mismatches cost wall-clock, never results.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/run_journal.h"
#include "data/benchmark_suite.h"
#include "dist/coordinator.h"
#include "dist/lease.h"
#include "dist/shared_dataset.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "serve/protocol.h"
#include "util/checksum.h"

namespace autofp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

PipelineSpec SpecOf(std::vector<PreprocessorKind> kinds) {
  return PipelineSpec::FromKinds(kinds);
}

/// Decodes exactly one frame out of `bytes` and checks nothing trails it.
Frame DecodeOneFrame(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ServeError error = ServeError::kNone;
  std::string detail;
  AUTOFP_CHECK(decoder.Next(&frame, &error, &detail) ==
               FrameDecoder::Outcome::kFrame)
      << detail;
  AUTOFP_CHECK(decoder.Next(&frame, &error, &detail) !=
               FrameDecoder::Outcome::kFrame);
  return frame;
}

// --- Wire codec -------------------------------------------------------------

TEST(DistWire, HelloRoundTrip) {
  DistHello hello;
  hello.pid = 4242;
  hello.worker_index = 3;
  hello.dataset_fingerprint = 0xDEADBEEFCAFEF00Dull;
  std::string bytes;
  EncodeHelloFrame(hello, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(DistFrameType::kHello));
  DistHello decoded;
  ASSERT_TRUE(DecodeHelloFrame(frame, &decoded));
  EXPECT_EQ(decoded.pid, hello.pid);
  EXPECT_EQ(decoded.worker_index, hello.worker_index);
  EXPECT_EQ(decoded.dataset_fingerprint, hello.dataset_fingerprint);
}

TEST(DistWire, LeaseRoundTripCarriesFullRequests) {
  DistLease lease;
  lease.lease_id = 7;
  lease.generation = 19;
  lease.deadline_seconds = 2.5;
  EvalRequest first;
  first.pipeline = SpecOf({PreprocessorKind::kStandardScaler,
                           PreprocessorKind::kBinarizer});
  first.budget_fraction = 0.25;
  first.deadline_seconds = 1.5;
  first.seed = 0x1234567890ABCDEFull;
  EvalRequest second;
  second.pipeline = SpecOf({});  // the empty pipeline must survive too
  second.budget_fraction = 1.0;
  second.deadline_seconds = -1.0;
  second.seed = 99;
  lease.requests = {first, second};

  std::string bytes;
  EncodeLeaseFrame(lease, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  DistLease decoded;
  ASSERT_TRUE(DecodeLeaseFrame(frame, &decoded));
  EXPECT_EQ(decoded.lease_id, 7u);
  EXPECT_EQ(decoded.generation, 19u);
  EXPECT_DOUBLE_EQ(decoded.deadline_seconds, 2.5);
  ASSERT_EQ(decoded.requests.size(), 2u);
  EXPECT_EQ(decoded.requests[0].pipeline.ToString(),
            first.pipeline.ToString());
  EXPECT_DOUBLE_EQ(decoded.requests[0].budget_fraction, 0.25);
  EXPECT_DOUBLE_EQ(decoded.requests[0].deadline_seconds, 1.5);
  EXPECT_EQ(decoded.requests[0].seed, first.seed);
  EXPECT_TRUE(decoded.requests[1].pipeline.empty());
  EXPECT_EQ(decoded.requests[1].seed, 99u);
}

TEST(DistWire, ResultRoundTripIsJournalGrade) {
  DistResult result;
  result.lease_id = 11;
  result.generation = 23;
  result.offset = 2;
  result.record.pipeline = SpecOf({PreprocessorKind::kMinMaxScaler}).ToString();
  result.record.budget_fraction = 0.5;
  result.record.seed = 77;
  result.record.accuracy = kPenaltyAccuracy;
  result.record.failure = EvalFailure::kNonFiniteOutput;
  result.record.status_code = static_cast<int>(StatusCode::kOutOfRange);
  result.record.status_message = "rigged non-finite";
  result.record.attempts = 2;
  result.record.elapsed_seconds = 0.125;
  result.record.prep_seconds = 0.0625;
  result.record.train_seconds = 0.03125;

  std::string bytes;
  EncodeResultFrame(result, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  DistResult decoded;
  ASSERT_TRUE(DecodeResultFrame(frame, &decoded));
  EXPECT_EQ(decoded.lease_id, 11u);
  EXPECT_EQ(decoded.generation, 23u);
  EXPECT_EQ(decoded.offset, 2u);
  // The payload is the journal's own record codec: the outcome that
  // crossed the pipe re-journals byte-identically.
  EXPECT_EQ(EncodeJournalRecordPayload(decoded.record),
            EncodeJournalRecordPayload(result.record));
  Evaluation evaluation = EvaluationFromRecord(decoded.record);
  EXPECT_EQ(evaluation.failure, EvalFailure::kNonFiniteOutput);
  EXPECT_EQ(evaluation.status.code(), StatusCode::kOutOfRange);
}

TEST(DistWire, LeaseDoneRoundTripAndTypeConfusionRejected) {
  DistLeaseDone done;
  done.lease_id = 5;
  done.generation = 6;
  std::string bytes;
  EncodeLeaseDoneFrame(done, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  DistLeaseDone decoded;
  ASSERT_TRUE(DecodeLeaseDoneFrame(frame, &decoded));
  EXPECT_EQ(decoded.lease_id, 5u);
  EXPECT_EQ(decoded.generation, 6u);

  // Decoders refuse frames of the wrong type and short payloads.
  DistHello hello;
  EXPECT_FALSE(DecodeHelloFrame(frame, &hello));
  frame.payload.resize(frame.payload.size() / 2);
  EXPECT_FALSE(DecodeLeaseDoneFrame(frame, &decoded));
}

TEST(DistWire, CorruptedBytesDesyncTheDecoder) {
  DistHello hello;
  hello.pid = 1;
  std::string bytes;
  EncodeHelloFrame(hello, &bytes);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload/CRC bit
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ServeError error = ServeError::kNone;
  std::string detail;
  EXPECT_EQ(decoder.Next(&frame, &error, &detail),
            FrameDecoder::Outcome::kBad);
}

// --- Lease table ------------------------------------------------------------

TEST(LeaseTable, IssueAcceptRelease) {
  LeaseTable table;
  const Lease& lease = table.Issue({4, 9, 2}, /*worker_index=*/1,
                                   /*deadline=*/10.0, /*batch_attempts=*/1);
  const uint64_t id = lease.id;
  const uint64_t generation = lease.generation;
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.leases_issued(), 1u);

  // Results resolve offsets to the round slots they answer.
  EXPECT_EQ(table.AcceptResult(id, generation, 1), std::optional<size_t>(9));
  EXPECT_EQ(table.AcceptResult(id, generation, 0), std::optional<size_t>(4));
  // Duplicates and out-of-range offsets are stale, not fatal.
  EXPECT_EQ(table.AcceptResult(id, generation, 1), std::nullopt);
  EXPECT_EQ(table.AcceptResult(id, generation, 3), std::nullopt);
  ASSERT_NE(table.Find(id), nullptr);
  EXPECT_EQ(table.Find(id)->RemainingSlots(), std::vector<size_t>{2});
  EXPECT_FALSE(table.Find(id)->AllDone());
  EXPECT_EQ(table.AcceptResult(id, generation, 2), std::optional<size_t>(2));
  EXPECT_TRUE(table.Find(id)->AllDone());

  // Release with a stale generation is refused; the real one removes it.
  EXPECT_EQ(table.Release(id, generation + 1), std::nullopt);
  std::optional<Lease> released = table.Release(id, generation);
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->AllDone());
  EXPECT_EQ(table.active(), 0u);
}

TEST(LeaseTable, RevokedStragglersCannotDoubleCount) {
  LeaseTable table;
  const Lease& first = table.Issue({0, 1}, 0, 1.0, 1);
  const uint64_t first_id = first.id;
  const uint64_t first_generation = first.generation;

  // Deadline passes; the coordinator revokes and re-leases the remainder.
  EXPECT_EQ(table.ExpiredLeases(2.0), std::vector<uint64_t>{first_id});
  std::optional<Lease> revoked = table.Revoke(first_id);
  ASSERT_TRUE(revoked.has_value());
  const Lease& second = table.Issue(revoked->RemainingSlots(), 1, 5.0, 2);
  EXPECT_GT(second.generation, first_generation);
  EXPECT_EQ(second.batch_attempts, 2);

  // The straggler answers late under its old stamp: discarded, both for
  // results and for LEASE_DONE.
  EXPECT_EQ(table.AcceptResult(first_id, first_generation, 0), std::nullopt);
  EXPECT_EQ(table.Release(first_id, first_generation), std::nullopt);
  // The re-lease's answers land normally.
  EXPECT_EQ(table.AcceptResult(second.id, second.generation, 0),
            std::optional<size_t>(0));
}

TEST(LeaseTable, NextDeadlineTracksTheEarliestLease) {
  LeaseTable table;
  EXPECT_EQ(table.NextDeadline(), std::nullopt);
  table.Issue({0}, 0, 7.0, 1);
  const Lease& early = table.Issue({1}, 1, 3.0, 1);
  EXPECT_EQ(table.NextDeadline(), std::optional<double>(3.0));
  table.Revoke(early.id);
  EXPECT_EQ(table.NextDeadline(), std::optional<double>(7.0));
  EXPECT_TRUE(table.ExpiredLeases(5.0).empty());
}

// --- Shared dataset ---------------------------------------------------------

TEST(SharedDataset, RoundTripPreservesEverything) {
  Result<Dataset> loaded = GetSuiteDataset("blood_syn");
  ASSERT_TRUE(loaded.ok());
  const Dataset& data = loaded.value();
  const std::string path = TempPath("shared_roundtrip.ds");
  ASSERT_TRUE(WriteSharedDataset(path, data).ok());

  Result<Dataset> mapped = MapSharedDataset(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Dataset& copy = mapped.value();
  EXPECT_EQ(copy.name, data.name);
  EXPECT_EQ(copy.num_classes, data.num_classes);
  EXPECT_EQ(copy.labels, data.labels);
  ASSERT_EQ(copy.features.rows(), data.features.rows());
  ASSERT_EQ(copy.features.cols(), data.features.cols());
  EXPECT_TRUE(copy.features == data.features);
  // The mapped dataset is a zero-copy view into the mapping, with the
  // feature block cache-line aligned by the v2 file padding.
  EXPECT_TRUE(copy.features.borrowed());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(copy.features.Raw()) % 64, 0u);
  EXPECT_EQ(DatasetFingerprint(copy), DatasetFingerprint(data));
  std::remove(path.c_str());
}

TEST(SharedDataset, CorruptionAndTruncationAreTypedErrors) {
  Result<Dataset> loaded = GetSuiteDataset("blood_syn");
  ASSERT_TRUE(loaded.ok());
  const std::string path = TempPath("shared_corrupt.ds");
  ASSERT_TRUE(WriteSharedDataset(path, loaded.value()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Flipped feature bit: the CRC catches it.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  const std::string flipped_path = TempPath("shared_flipped.ds");
  { std::ofstream out(flipped_path, std::ios::binary); out << flipped; }
  EXPECT_FALSE(MapSharedDataset(flipped_path).ok());

  // Truncation: typed error, not a short dataset.
  const std::string truncated_path = TempPath("shared_truncated.ds");
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 3);
  }
  EXPECT_FALSE(MapSharedDataset(truncated_path).ok());

  // Not our file at all.
  const std::string foreign_path = TempPath("shared_foreign.ds");
  { std::ofstream out(foreign_path, std::ios::binary); out << "hello"; }
  EXPECT_FALSE(MapSharedDataset(foreign_path).ok());
  EXPECT_FALSE(MapSharedDataset(TempPath("shared_missing.ds")).ok());

  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
  std::remove(truncated_path.c_str());
  std::remove(foreign_path.c_str());
}

// --- DistributedEvaluator over forked workers -------------------------------

constexpr uint64_t kTestFingerprint = 0xF00DF00DF00DF00Dull;

/// Deterministic synthetic landscape: accuracy is a pure function of the
/// request (pipeline text + seed + fraction), so coordinator-merged
/// results are comparable against a local sequential pass bit for bit.
class SyntheticEvaluator : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    const std::string text = request.pipeline.ToString();
    uint64_t hash = Fnv1a64(text.data(), text.size());
    hash = HashCombine(hash, request.seed);
    if (hash % 7 == 0) {  // a deterministic sprinkling of typed failures
      evaluation.failure = EvalFailure::kNonFiniteOutput;
      evaluation.status = Status::OutOfRange("synthetic failure");
      evaluation.accuracy = kPenaltyAccuracy;
      return evaluation;
    }
    evaluation.accuracy =
        static_cast<double>(hash % 10000) / 10000.0 * request.budget_fraction;
    return evaluation;
  }
  double BaselineAccuracy() override { return 0.25; }
};

std::vector<EvalRequest> MakeRequests(size_t count) {
  const PreprocessorKind kinds[] = {
      PreprocessorKind::kStandardScaler, PreprocessorKind::kMinMaxScaler,
      PreprocessorKind::kBinarizer, PreprocessorKind::kNormalizer};
  std::vector<EvalRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    EvalRequest request;
    std::vector<PreprocessorKind> steps;
    for (size_t depth = 0; depth <= i % 3; ++depth) {
      steps.push_back(kinds[(i + depth) % 4]);
    }
    request.pipeline = SpecOf(steps);
    request.budget_fraction = (i % 2 == 0) ? 1.0 : 0.5;
    request.seed = EvalRequest::DeriveSeed(42, request.pipeline,
                                           request.budget_fraction, 0);
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Canonical comparison form of an outcome list.
std::string Canonical(const std::vector<Evaluation>& evaluations) {
  std::string out;
  for (const Evaluation& evaluation : evaluations) {
    JournalRecord record = MakeJournalRecord(evaluation, 0, 0.0);
    record.elapsed_seconds = 0.0;  // timing legitimately differs
    record.prep_seconds = 0.0;
    record.train_seconds = 0.0;
    out += record.pipeline;
    out += '|';
    out += EncodeJournalRecordPayload(record);
    out += '\n';
  }
  return out;
}

/// A coordinator over forked synthetic workers with the given hooks.
struct DistHarness {
  explicit DistHarness(DistOptions options, WorkerHooks hooks = {}) {
    options.expected_dataset_fingerprint = kTestFingerprint;
    evaluator = std::make_unique<DistributedEvaluator>(
        &local, InProcessWorkerSpawner([hooks](int fd, int worker_index) {
          SyntheticEvaluator worker_local;
          return RunDistWorker(fd, worker_index, kTestFingerprint,
                               &worker_local, hooks);
        }),
        options);
  }
  SyntheticEvaluator local;
  std::unique_ptr<DistributedEvaluator> evaluator;
};

TEST(DistributedEvaluator, MatchesLocalSequentialResultsInOrder) {
  SyntheticEvaluator reference;
  const std::vector<EvalRequest> requests = MakeRequests(23);
  const std::vector<Evaluation> want = reference.EvaluateAll(requests);

  DistOptions options;
  options.num_workers = 3;
  DistHarness harness(options);
  const std::vector<Evaluation> got = harness.evaluator->EvaluateAll(requests);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(Canonical(got), Canonical(want));
  EXPECT_EQ(harness.evaluator->stats().worker_crashes, 0);
  EXPECT_EQ(harness.evaluator->stats().local_fallback_evals, 0);
  // One lease per request when nothing fails.
  EXPECT_EQ(harness.evaluator->stats().leases_issued, 23l);

  // A second batch reuses the same fleet.
  const std::vector<Evaluation> again =
      harness.evaluator->EvaluateAll(requests);
  EXPECT_EQ(Canonical(again), Canonical(want));
  harness.evaluator->Shutdown();
  EXPECT_EQ(harness.evaluator->live_workers(), 0);
}

TEST(DistributedEvaluator, WorkerCrashesCostNothingButTime) {
  SyntheticEvaluator reference;
  const std::vector<EvalRequest> requests = MakeRequests(17);
  const std::vector<Evaluation> want = reference.EvaluateAll(requests);

  DistOptions options;
  options.num_workers = 2;
  WorkerHooks hooks;
  // Every worker dies taking its third request, stranding that lease.
  hooks.crash_after_results = 2;
  DistHarness harness(options, hooks);
  const std::vector<Evaluation> got = harness.evaluator->EvaluateAll(requests);
  EXPECT_EQ(Canonical(got), Canonical(want));
  EXPECT_GE(harness.evaluator->stats().worker_crashes, 1);
  // Crashed leases were re-leased or locally resolved, never dropped.
  const DistStats& stats = harness.evaluator->stats();
  EXPECT_GE(stats.re_leases + stats.local_fallback_evals, 1);
  EXPECT_EQ(stats.worker_lost_evals, 0);
}

TEST(DistributedEvaluator, StragglersAreRevokedAndWorkIsRecovered) {
  SyntheticEvaluator reference;
  const std::vector<EvalRequest> requests = MakeRequests(6);
  const std::vector<Evaluation> want = reference.EvaluateAll(requests);

  DistOptions options;
  options.num_workers = 2;
  options.lease_deadline_seconds = 0.3;
  options.max_lease_attempts = 2;
  WorkerHooks hooks;
  hooks.stall_after_results = 0;  // stall before the first result
  hooks.stall_seconds = 30.0;     // far past the lease deadline
  DistHarness harness(options, hooks);
  const std::vector<Evaluation> got = harness.evaluator->EvaluateAll(requests);
  // Every worker (and every respawn) stalls, so the answers come from
  // revocation + local fallback — still identical.
  EXPECT_EQ(Canonical(got), Canonical(want));
  EXPECT_GE(harness.evaluator->stats().straggler_revocations, 1);
  EXPECT_GE(harness.evaluator->stats().local_fallback_evals, 1);
}

TEST(DistributedEvaluator, FingerprintMismatchedWorkersAreRefused) {
  SyntheticEvaluator reference;
  SyntheticEvaluator local;
  const std::vector<EvalRequest> requests = MakeRequests(5);
  const std::vector<Evaluation> want = reference.EvaluateAll(requests);

  DistOptions options;
  options.num_workers = 2;
  options.expected_dataset_fingerprint = kTestFingerprint;
  DistributedEvaluator evaluator(
      &local, InProcessWorkerSpawner([](int fd, int worker_index) {
        SyntheticEvaluator worker_local;
        // The worker mapped the wrong data: HELLO carries the truth.
        return RunDistWorker(fd, worker_index, kTestFingerprint ^ 1,
                             &worker_local, WorkerHooks{});
      }),
      options);
  const std::vector<Evaluation> got = evaluator.EvaluateAll(requests);
  EXPECT_EQ(Canonical(got), Canonical(want));
  EXPECT_GE(evaluator.stats().hello_rejects, 1);
  // No mismatched worker ever held a lease.
  EXPECT_EQ(evaluator.stats().leases_issued, 0);
  EXPECT_EQ(evaluator.stats().local_fallback_evals,
            static_cast<long>(requests.size()));
}

TEST(DistributedEvaluator, NoWorkersAndNoFallbackReportsWorkerLost) {
  SyntheticEvaluator local;
  DistOptions options;
  options.num_workers = 2;
  options.allow_local_fallback = false;
  DistributedEvaluator evaluator(
      &local,
      [](int, int) -> Result<pid_t> {
        return Status::Internal("spawner rigged to fail");
      },
      options);
  const std::vector<EvalRequest> requests = MakeRequests(4);
  const std::vector<Evaluation> got = evaluator.EvaluateAll(requests);
  ASSERT_EQ(got.size(), requests.size());
  for (const Evaluation& evaluation : got) {
    EXPECT_EQ(evaluation.failure, EvalFailure::kWorkerLost);
    EXPECT_TRUE(IsTransientFailure(evaluation.failure));
    EXPECT_DOUBLE_EQ(evaluation.accuracy, kPenaltyAccuracy);
  }
  EXPECT_EQ(evaluator.stats().worker_lost_evals,
            static_cast<long>(requests.size()));
}

TEST(DistributedEvaluator, SingleEvaluateDelegatesToTheFleet) {
  SyntheticEvaluator reference;
  DistOptions options;
  options.num_workers = 1;
  DistHarness harness(options);
  EvalRequest request = MakeRequests(1)[0];
  Evaluation want = reference.Evaluate(request);
  Evaluation got = harness.evaluator->Evaluate(request);
  EXPECT_EQ(Canonical({got}), Canonical({want}));
  EXPECT_DOUBLE_EQ(harness.evaluator->BaselineAccuracy(), 0.25);
  EXPECT_TRUE(harness.evaluator->SupportsConcurrentBatches());
}

}  // namespace
}  // namespace autofp
