/// Tests of the distributed-search stack (src/dist/): the wire codec's
/// round trips and rejection of malformed frames, the shared-dataset
/// hand-off file's corruption taxonomy, and the DistributedEvaluator end
/// to end over real forked workers (InProcessWorkerSpawner) — including
/// the headline robustness property: worker crashes, stragglers, stale
/// answers and fingerprint mismatches cost wall-clock, never results.

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
#include "dist/shared_dataset.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "serve/protocol.h"
#include "util/checksum.h"

namespace autofp {
namespace {

template <typename T>
void AppendPodForTest(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

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
  hello.dataset_fingerprint = 0xDEADBEEFCAFEF00Dull;
  std::string bytes;
  EncodeHelloFrame(hello, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(DistFrameType::kHello));
  DistHello decoded;
  ASSERT_TRUE(DecodeHelloFrame(frame, &decoded));
  EXPECT_EQ(decoded.dataset_fingerprint, hello.dataset_fingerprint);
}

DistLease SampleLease() {
  DistLease lease;
  lease.lease_id = 7;
  lease.request.pipeline = SpecOf({PreprocessorKind::kStandardScaler,
                                   PreprocessorKind::kBinarizer});
  lease.request.budget_fraction = 0.25;
  lease.request.deadline_seconds = 1.5;
  lease.request.seed = 0x1234567890ABCDEFull;
  return lease;
}

DistResult SampleResult() {
  DistResult result;
  result.lease_id = 11;
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
  return result;
}

TEST(DistWire, LeaseRoundTripCarriesFullRequests) {
  const DistLease lease = SampleLease();
  std::string bytes;
  EncodeLeaseFrame(lease, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  DistLease decoded;
  ASSERT_TRUE(DecodeLeaseFrame(frame, &decoded));
  EXPECT_EQ(decoded.lease_id, 7u);
  EXPECT_EQ(decoded.request.pipeline.ToString(),
            lease.request.pipeline.ToString());
  EXPECT_DOUBLE_EQ(decoded.request.budget_fraction, 0.25);
  EXPECT_DOUBLE_EQ(decoded.request.deadline_seconds, 1.5);
  EXPECT_EQ(decoded.request.seed, lease.request.seed);

  // The empty pipeline must survive too.
  DistLease empty;
  empty.lease_id = 8;
  empty.request.seed = 99;
  bytes.clear();
  EncodeLeaseFrame(empty, &bytes);
  ASSERT_TRUE(DecodeLeaseFrame(DecodeOneFrame(bytes), &decoded));
  EXPECT_EQ(decoded.lease_id, 8u);
  EXPECT_TRUE(decoded.request.pipeline.empty());
  EXPECT_EQ(decoded.request.seed, 99u);
}

TEST(DistWire, ResultRoundTripIsJournalGrade) {
  const DistResult result = SampleResult();
  std::string bytes;
  EncodeResultFrame(result, &bytes);
  Frame frame = DecodeOneFrame(bytes);
  DistResult decoded;
  ASSERT_TRUE(DecodeResultFrame(frame, &decoded));
  EXPECT_EQ(decoded.lease_id, 11u);
  // The payload is the journal's own record codec: the outcome that
  // crossed the pipe re-journals byte-identically.
  EXPECT_EQ(EncodeJournalRecordPayload(decoded.record),
            EncodeJournalRecordPayload(result.record));
  Evaluation evaluation = EvaluationFromRecord(decoded.record);
  EXPECT_EQ(evaluation.failure, EvalFailure::kNonFiniteOutput);
  EXPECT_EQ(evaluation.status.code(), StatusCode::kOutOfRange);
}

/// Frames `payload` as `type` with a valid CRC and decodes it back
/// through the real FrameDecoder, so only the message decoder can object.
Frame ValidCrcFrame(DistFrameType type, const std::string& payload) {
  std::string bytes;
  EncodeFrame(static_cast<FrameType>(type), payload, &bytes);
  return DecodeOneFrame(bytes);
}

bool DecodeAs(DistFrameType type, const Frame& frame) {
  switch (type) {
    case DistFrameType::kHello: {
      DistHello hello;
      return DecodeHelloFrame(frame, &hello);
    }
    case DistFrameType::kLease: {
      DistLease lease;
      return DecodeLeaseFrame(frame, &lease);
    }
    case DistFrameType::kResult: {
      DistResult result;
      return DecodeResultFrame(frame, &result);
    }
    case DistFrameType::kShutdown:
      break;
  }
  return false;
}

TEST(DistWire, EveryPrefixExtensionAndTypeConfusionIsRejected) {
  std::string hello_bytes;
  EncodeHelloFrame(DistHello{0xDEADBEEFCAFEF00Dull}, &hello_bytes);
  std::string lease_bytes;
  EncodeLeaseFrame(SampleLease(), &lease_bytes);
  std::string result_bytes;
  EncodeResultFrame(SampleResult(), &result_bytes);
  const std::vector<Frame> valid = {DecodeOneFrame(hello_bytes),
                                    DecodeOneFrame(lease_bytes),
                                    DecodeOneFrame(result_bytes)};
  const DistFrameType types[] = {DistFrameType::kHello, DistFrameType::kLease,
                                 DistFrameType::kResult};

  for (size_t t = 0; t < valid.size(); ++t) {
    const std::string& payload = valid[t].payload;
    ASSERT_TRUE(DecodeAs(types[t], valid[t]));
    for (size_t length = 0; length < payload.size(); ++length) {
      EXPECT_FALSE(
          DecodeAs(types[t], ValidCrcFrame(types[t], payload.substr(0, length))))
          << "type " << static_cast<int>(types[t]) << " prefix " << length;
    }
    EXPECT_FALSE(DecodeAs(types[t], ValidCrcFrame(types[t], payload + '\0')))
        << "type " << static_cast<int>(types[t]) << " plus a trailing byte";
    // A frame of one type never decodes as another.
    for (size_t other = 0; other < valid.size(); ++other) {
      if (other != t) {
        EXPECT_FALSE(DecodeAs(types[other], valid[t]));
      }
    }
  }

  // The batch layout's LEASE (lease_id, generation, deadline, then a
  // request count of 0xFFFFFFFF and no requests): a 41-byte CRC-valid
  // frame that once sized an allocation from the count.
  std::string batch_payload(24, '\0');
  batch_payload.append(4, '\xFF');
  const Frame batch = ValidCrcFrame(DistFrameType::kLease, batch_payload);
  EXPECT_FALSE(DecodeAs(DistFrameType::kLease, batch));

  // A RESULT whose record names an unparseable pipeline is refused at the
  // wire; EvaluationFromRecord would abort the coordinator on it.
  DistResult garbage = SampleResult();
  garbage.record.pipeline = "NoSuchPreprocessor";
  std::string garbage_bytes;
  EncodeResultFrame(garbage, &garbage_bytes);
  EXPECT_FALSE(DecodeAs(DistFrameType::kResult, DecodeOneFrame(garbage_bytes)));
}

TEST(DistWire, CorruptedBytesDesyncTheDecoder) {
  DistHello hello;
  hello.dataset_fingerprint = 1;
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

  // CRC-valid files whose header sizes exceed the file: each once
  // crashed the loader before any bounds check ran.
  struct Crafted {
    const char* what;
    uint64_t rows;
    uint64_t cols;
    uint32_t name_len;
    size_t file_bytes;
  };
  const Crafted crafted[] = {
      // The feature size wraps to 0, and the fingerprint pass read far
      // past the mapping (SIGBUS).
      {"cols 2^61", 1, uint64_t{1} << 61, 0, 72},
      // Sized a 4 GiB name before checking the bytes (bad_alloc).
      {"name_len 0xFFFFFFFF", 1, 1, 0xFFFFFFFFu, 68},
      // Sized a 2^61-entry label vector (length_error).
      {"rows 2^61", uint64_t{1} << 61, 1, 0, 68},
  };
  const std::string crafted_path = TempPath("shared_crafted.ds");
  for (const Crafted& c : crafted) {
    std::string file;
    AppendPodForTest(&file, kSharedDatasetMagic);
    AppendPodForTest(&file, kSharedDatasetVersion);
    AppendPodForTest(&file, uint64_t{0});  // fingerprint
    AppendPodForTest(&file, uint32_t{2});  // num_classes
    AppendPodForTest(&file, c.rows);
    AppendPodForTest(&file, c.cols);
    AppendPodForTest(&file, c.name_len);
    file.resize(c.file_bytes - sizeof(uint32_t), '\0');
    AppendPodForTest(&file, Crc32(file.data(), file.size()));
    ASSERT_EQ(file.size(), c.file_bytes);
    { std::ofstream out(crafted_path, std::ios::binary); out << file; }
    Result<Dataset> mapped = MapSharedDataset(crafted_path);
    ASSERT_FALSE(mapped.ok()) << c.what;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << mapped.status().ToString();
  }

  // Not our file at all.
  const std::string foreign_path = TempPath("shared_foreign.ds");
  { std::ofstream out(foreign_path, std::ios::binary); out << "hello"; }
  EXPECT_FALSE(MapSharedDataset(foreign_path).ok());
  EXPECT_FALSE(MapSharedDataset(TempPath("shared_missing.ds")).ok());

  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
  std::remove(truncated_path.c_str());
  std::remove(foreign_path.c_str());
  std::remove(crafted_path.c_str());
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
        &local, InProcessWorkerSpawner([hooks](int fd, int) {
          SyntheticEvaluator worker_local;
          return RunDistWorker(fd, kTestFingerprint, &worker_local, hooks);
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

TEST(DistributedEvaluator, ResultsForAnotherLeaseAreCountedStaleAndIgnored) {
  SyntheticEvaluator reference;
  const std::vector<EvalRequest> requests = MakeRequests(5);
  const std::vector<Evaluation> want = reference.EvaluateAll(requests);

  // A hand-written worker: it answers its first lease once under a wrong
  // lease id (carrying a wrong outcome), then answers every lease right.
  auto worker_main = [](int fd, int) {
    FrameChannel channel(fd);
    SyntheticEvaluator worker_local;
    std::string bytes;
    EncodeHelloFrame(DistHello{kTestFingerprint}, &bytes);
    if (!channel.Send(bytes)) return 0;
    bool sent_stale = false;
    for (;;) {
      Frame frame;
      if (channel.Recv(&frame) != FrameChannel::RecvOutcome::kFrame) return 0;
      DistLease lease;
      if (!DecodeLeaseFrame(frame, &lease)) return 0;  // SHUTDOWN
      const Evaluation evaluation = worker_local.Evaluate(lease.request);
      DistResult result;
      result.record = MakeJournalRecord(evaluation, lease.request.seed, 0.0);
      if (!sent_stale) {
        sent_stale = true;
        DistResult stale = result;
        stale.lease_id = lease.lease_id + 1000;
        stale.record.accuracy = 0.5 * evaluation.accuracy + 0.125;
        bytes.clear();
        EncodeResultFrame(stale, &bytes);
        if (!channel.Send(bytes)) return 0;
      }
      result.lease_id = lease.lease_id;
      bytes.clear();
      EncodeResultFrame(result, &bytes);
      if (!channel.Send(bytes)) return 0;
    }
  };

  SyntheticEvaluator local;
  DistOptions options;
  options.num_workers = 1;
  options.expected_dataset_fingerprint = kTestFingerprint;
  DistributedEvaluator evaluator(&local, InProcessWorkerSpawner(worker_main),
                                 options);
  const std::vector<Evaluation> got = evaluator.EvaluateAll(requests);
  EXPECT_EQ(Canonical(got), Canonical(want));
  EXPECT_EQ(evaluator.stats().stale_results, 1);
  EXPECT_EQ(evaluator.stats().local_fallback_evals, 0);
  EXPECT_EQ(evaluator.stats().leases_issued,
            static_cast<long>(requests.size()));
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
      &local, InProcessWorkerSpawner([](int fd, int) {
        SyntheticEvaluator worker_local;
        // The worker mapped the wrong data: HELLO carries the truth.
        return RunDistWorker(fd, kTestFingerprint ^ 1, &worker_local,
                             WorkerHooks{});
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
