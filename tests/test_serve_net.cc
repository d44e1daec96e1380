/// Tests of the network serving stack (src/serve/server.h and
/// src/serve/registry.h): the hot-swap registry's publish semantics, the
/// socket round trip's bit-identity with in-process PredictSharded,
/// admission control, group-commit micro-batching, pipelined
/// request/response ordering, the STATS snapshot, an empty registry, and
/// the headline concurrency property — a SWAP landing under live
/// multi-connection load yields only whole-response old-artifact or
/// new-artifact answers, never a torn mix.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "serve/predictor.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace autofp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset TestData() {
  Result<Dataset> data = GetSuiteDataset("blood_syn");
  AUTOFP_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

std::string ExportTestArtifact(const Dataset& data, PreprocessorKind kind,
                               const std::string& name) {
  std::string path = TempPath(name);
  Result<ArtifactSchema> exported = ExportArtifact(
      path, data, PipelineSpec::FromKinds({kind}),
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  AUTOFP_CHECK(exported.ok()) << exported.status().ToString();
  return path;
}

/// In-process reference answers for `rows` under the artifact at `path`.
std::vector<int32_t> ReferencePredictions(const std::string& path,
                                          const Matrix& rows) {
  Predictor::LoadResult loaded = Predictor::Load(path, {});
  AUTOFP_CHECK(loaded.ok()) << loaded.status().ToString();
  Result<std::vector<int>> predictions =
      loaded.predictor().PredictSharded(rows, 256);
  AUTOFP_CHECK(predictions.ok()) << predictions.status().ToString();
  return std::vector<int32_t>(predictions.value().begin(),
                              predictions.value().end());
}

Matrix ProbeRows(const Dataset& data, size_t count) {
  const size_t rows = std::min(count, data.features.rows());
  Matrix probe(rows, data.features.cols());
  for (size_t r = 0; r < rows; ++r) {
    const double* src = data.features.RowPtr(r);
    std::copy(src, src + data.features.cols(), probe.RowPtr(r));
  }
  return probe;
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, SwapPublishesAndFailedSwapKeepsOld) {
  Dataset data = TestData();
  const std::string path_a =
      ExportTestArtifact(data, PreprocessorKind::kStandardScaler, "reg_a.afpa");

  ArtifactRegistry registry;
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.Info().generation, 0);

  ASSERT_TRUE(registry.Swap(path_a).ok());
  std::shared_ptr<const Predictor> live = registry.Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(registry.Info().generation, 1);
  EXPECT_EQ(registry.Info().path, path_a);

  // A failed swap (missing file) must leave the old predictor serving.
  Status failed = registry.Swap(TempPath("registry_missing.afpa"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(registry.Acquire(), live);
  EXPECT_EQ(registry.Info().generation, 1);

  // An acquired reference outlives any number of swaps.
  ASSERT_TRUE(registry.Swap(path_a).ok());
  EXPECT_EQ(registry.Info().generation, 2);
  EXPECT_NE(registry.Acquire(), live);  // fresh load
  Matrix probe = ProbeRows(data, 4);
  EXPECT_TRUE(live->PredictSharded(probe, 2).ok());
}

TEST(Registry, CorruptOrTruncatedSwapKeepsOldPredictorServing) {
  Dataset data = TestData();
  const std::string good = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "reg_swap_good.afpa");
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(good).ok());
  std::shared_ptr<const Predictor> live = registry.Acquire();
  ASSERT_NE(live, nullptr);

  // Garbage bytes: typed corruption error, generation frozen, the
  // already-published predictor object keeps serving untouched.
  const std::string corrupt = TempPath("reg_swap_corrupt.afpa");
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << std::string(512, 'x');
  }
  Status corrupt_swap = registry.Swap(corrupt);
  ASSERT_FALSE(corrupt_swap.ok());
  EXPECT_EQ(corrupt_swap.code(), StatusCode::kInvalidArgument)
      << corrupt_swap.ToString();
  EXPECT_EQ(registry.Info().generation, 1);
  EXPECT_EQ(registry.Acquire(), live);

  // A torn copy of a real artifact (valid preamble, truncated section):
  // same guarantee.
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  const std::string truncated = TempPath("reg_swap_truncated.afpa");
  {
    std::ofstream out(truncated, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  Status truncated_swap = registry.Swap(truncated);
  ASSERT_FALSE(truncated_swap.ok());
  EXPECT_EQ(truncated_swap.code(), StatusCode::kInvalidArgument)
      << truncated_swap.ToString();
  EXPECT_EQ(registry.Info().generation, 1);
  EXPECT_EQ(registry.Acquire(), live);

  // The survivor still scores.
  Matrix probe = ProbeRows(data, 4);
  EXPECT_TRUE(registry.Acquire()->PredictSharded(probe, 2).ok());
}

TEST(Registry, ReloadNeedsALoadedArtifact) {
  ArtifactRegistry registry;
  Status reloaded = registry.Reload();
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.code(), StatusCode::kNotFound);

  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kMinMaxScaler, "reg_reload.afpa");
  ASSERT_TRUE(registry.Swap(path).ok());
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.Info().generation, 2);
}

// --- Socket server ----------------------------------------------------------

/// A registry + running server bound to an ephemeral port.
struct TestServer {
  explicit TestServer(const std::string& artifact_path,
                      ServerOptions options = {},
                      Predictor::Options predictor = {})
      : registry(predictor) {
    AUTOFP_CHECK(registry.Swap(artifact_path).ok());
    server = std::make_unique<ServeSocketServer>(&registry, options);
    Status started = server->Start();
    AUTOFP_CHECK(started.ok()) << started.ToString();
  }

  ArtifactRegistry registry;
  std::unique_ptr<ServeSocketServer> server;
};

TEST(ServeNet, DenseRoundTripIsBitIdenticalToInProcess) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_dense.afpa");
  Matrix probe = ProbeRows(data, 48);
  const std::vector<int32_t> want = ReferencePredictions(path, probe);

  TestServer harness(path);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  std::string request;
  EncodePredictDense(probe, &request);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.predictions, want);
}

TEST(ServeNet, CsvAndDenseAgree) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kMinMaxScaler, "net_csv.afpa");
  Matrix probe = ProbeRows(data, 16);

  TestServer harness(path);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  std::string dense_request;
  EncodePredictDense(probe, &dense_request);
  ServeResponse dense_response;
  ASSERT_TRUE(client.RoundTrip(dense_request, &dense_response).ok());
  ASSERT_TRUE(dense_response.ok()) << dense_response.message;

  // The CSV path must agree exactly ("%.17g" round-trips doubles).
  std::string csv;
  char cell[64];
  for (size_t r = 0; r < probe.rows(); ++r) {
    for (size_t c = 0; c < probe.cols(); ++c) {
      std::snprintf(cell, sizeof(cell), "%.17g", probe(r, c));
      if (c > 0) csv += ',';
      csv += cell;
    }
    csv += '\n';
  }
  std::string csv_request;
  EncodePredictCsv(csv, &csv_request);
  ServeResponse csv_response;
  ASSERT_TRUE(client.RoundTrip(csv_request, &csv_response).ok());
  ASSERT_TRUE(csv_response.ok()) << csv_response.message;
  EXPECT_EQ(csv_response.predictions, dense_response.predictions);
}

TEST(ServeNet, EmptyRegistryAnswersUnavailableAndPing) {
  // A server whose registry has never loaded an artifact still answers:
  // PREDICT is a typed kUnavailable, and PING works on the same connection.
  ArtifactRegistry registry;
  ServeSocketServer server(&registry, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::string predict;
  EncodePredictDense(Matrix{{1.0, 2.0}}, &predict);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(predict, &response).ok());
  EXPECT_EQ(response.error, ServeError::kUnavailable);

  std::string ping;
  EncodePing(&ping);
  ASSERT_TRUE(client.RoundTrip(ping, &response).ok());
  EXPECT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.type, FrameType::kPong);
}

TEST(ServeNet, PipelinedRequestsAnswerInOrder) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_pipeline.afpa");
  Matrix probe = ProbeRows(data, 4);

  TestServer harness(path);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  // One write carrying predict | ping | stats | bad-type | predict: five
  // responses must come back in exactly that order (admin frames and
  // admission-time errors ride the same per-connection FIFO).
  std::string burst;
  EncodePredictDense(probe, &burst);
  EncodePing(&burst);
  EncodeStats(&burst);
  EncodeFrame(static_cast<FrameType>(42), "???", &burst);
  EncodePredictDense(probe, &burst);
  ASSERT_TRUE(client.SendBytes(burst).ok());

  const FrameType want_order[] = {FrameType::kPredictions, FrameType::kPong,
                                  FrameType::kStatsReport, FrameType::kError,
                                  FrameType::kPredictions};
  for (FrameType want : want_order) {
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok());
    EXPECT_EQ(frame.frame_type(), want);
    if (want == FrameType::kError) {
      ServeResponse response;
      ASSERT_TRUE(DecodeResponseFrame(frame, &response));
      EXPECT_EQ(response.error, ServeError::kBadType);
    }
    if (want == FrameType::kStatsReport) {
      ServeResponse response;
      ASSERT_TRUE(DecodeResponseFrame(frame, &response));
      EXPECT_NE(response.message.find("{\"generation\":1,"),
                std::string::npos)
          << response.message;
      // Every ServerCounters field gets a key; the size check fails when
      // a field is added without a name here. The live predictor's
      // latency keys follow them.
      const char* const kCounterNames[] = {
          "connections_accepted", "frames_received", "predict_requests",
          "predict_rows",         "micro_batches",   "coalesced_requests",
          "busy_shed",            "protocol_errors", "swaps",
          "peer_disconnects"};
      static_assert(sizeof(ServerCounters) ==
                    std::size(kCounterNames) * sizeof(long));
      const char* const kLatencyNames[] = {
          "latency_batches", "latency_rows", "rows_per_second",
          "p50_ms",          "p95_ms",       "p99_ms"};
      for (const char* name : kCounterNames) {
        EXPECT_NE(response.message.find(",\"" + std::string(name) + "\":"),
                  std::string::npos)
            << name << " missing from: " << response.message;
      }
      for (const char* name : kLatencyNames) {
        EXPECT_NE(response.message.find(",\"" + std::string(name) + "\":"),
                  std::string::npos)
            << name << " missing from: " << response.message;
      }
    }
  }
}

/// Counts scored batches and reports them through CountersJson.
class CountingObserver : public ServeBatchObserver {
 public:
  void OnBatchScored(const Matrix&, const std::vector<int>&,
                     const Predictor&) override {
    batches_.fetch_add(1);
  }
  std::string CountersJson() const override {
    return "\"stub_batches\":" + std::to_string(batches_.load()) +
           ",\"stub_last\":7";
  }

 private:
  std::atomic<long> batches_{0};
};

TEST(ServeNet, StatsFrameIsOneJsonObjectWithObserverKeysAndEscapedPath) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_stats_\"q\\b.afpa");
  CountingObserver observer;
  ServerOptions options;
  options.batch_observer = &observer;
  TestServer harness(path, options);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  std::string request;
  EncodePredictDense(ProbeRows(data, 4), &request);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  ASSERT_TRUE(response.ok()) << response.message;
  request.clear();
  EncodeStats(&request);
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  ASSERT_EQ(response.type, FrameType::kStatsReport);
  const std::string& json = response.message;

  // One flat object: outside string literals, the only braces are the
  // first and the last byte, and every string literal is closed.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  bool in_string = false;
  int braces = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (in_string) {
      if (json[i] == '\\') {
        ++i;
      } else if (json[i] == '"') {
        in_string = false;
      }
    } else if (json[i] == '"') {
      in_string = true;
    } else if (json[i] == '{' || json[i] == '}') {
      ++braces;
    }
  }
  EXPECT_FALSE(in_string) << json;
  EXPECT_EQ(braces, 2) << json;

  std::string escaped;
  for (const char c : path) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  EXPECT_NE(json.find(",\"artifact\":\"" + escaped + "\","), std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"latency_batches\":1,"), std::string::npos) << json;
  // The observer's keys come last but for the uptime, which closes the
  // object with a positive value.
  const std::string tail =
      ",\"stub_batches\":1,\"stub_last\":7,\"uptime_s\":";
  const size_t at = json.find(tail);
  ASSERT_NE(at, std::string::npos) << json;
  char* parsed_end = nullptr;
  const double uptime =
      std::strtod(json.c_str() + at + tail.size(), &parsed_end);
  EXPECT_GT(uptime, 0.0) << json;
  EXPECT_EQ(parsed_end, json.c_str() + json.size() - 1) << json;
}

/// Holds the batch thread inside the first micro-batch it scores until
/// Release(), and records the row count of every scored micro-batch.
class BatchGate : public ServeBatchObserver {
 public:
  void OnBatchScored(const Matrix& rows, const std::vector<int>&,
                     const Predictor&) override {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_rows_.push_back(rows.rows());
    changed_.notify_all();
    changed_.wait(lock, [this] { return released_; });
  }
  /// Blocks until the batch thread is held inside the first batch.
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return !batch_rows_.empty(); });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }
  std::vector<size_t> batch_rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batch_rows_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<size_t> batch_rows_;
  bool released_ = false;
};

TEST(ServeNet, GroupCommitCoalescesWhatQueuedWhileABatchScored) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_group_commit.afpa");
  BatchGate gate;
  ServerOptions options;
  options.batch_observer = &gate;
  Predictor::Options predictor;
  predictor.num_threads = 2;
  TestServer harness(path, options, predictor);
  // Declared after the server, so it is destroyed first: a failed
  // assertion never leaves Stop() joining a held batch thread.
  struct ReleaseOnExit {
    BatchGate* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{&gate};
  Predictor::LoadResult loaded = Predictor::Load(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  // The first request, 32 that queue behind it, and a lone one.
  constexpr size_t kRequests = 32;
  constexpr size_t kParts = kRequests + 2;
  constexpr size_t kRowsEach = 16;
  const Matrix probe = ProbeRows(data, kParts * kRowsEach);
  ASSERT_EQ(probe.rows(), kParts * kRowsEach);
  std::vector<Matrix> parts;
  for (size_t i = 0; i < kParts; ++i) {
    Matrix part(kRowsEach, probe.cols());
    std::copy(probe.RowPtr(i * kRowsEach),
              probe.RowPtr(i * kRowsEach) + kRowsEach * probe.cols(),
              part.RowPtr(0));
    parts.push_back(std::move(part));
  }
  // The first request is scored alone, and the gate holds the batch
  // thread inside it.
  std::string first;
  EncodePredictDense(parts[0], &first);
  ASSERT_TRUE(client.SendBytes(first).ok());
  gate.AwaitHeld();

  // 32 pipelined requests queue behind it. predict_requests counts a
  // request once it is in the queue.
  std::string burst;
  for (size_t i = 1; i <= kRequests; ++i) {
    EncodePredictDense(parts[i], &burst);
  }
  ASSERT_TRUE(client.SendBytes(burst).ok());
  for (int i = 0; i < 1000 && harness.server->counters().predict_requests <
                                  static_cast<long>(1 + kRequests);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(harness.server->counters().predict_requests,
            static_cast<long>(1 + kRequests));
  gate.Release();

  // Every answer is the in-process one, in order.
  for (size_t i = 0; i <= kRequests; ++i) {
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok());
    ServeResponse response;
    ASSERT_TRUE(DecodeResponseFrame(frame, &response));
    ASSERT_TRUE(response.ok()) << response.message;
    Result<std::vector<int>> want = loaded.predictor().Predict(parts[i]);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(response.predictions,
              std::vector<int32_t>(want.value().begin(), want.value().end()))
        << "request " << i;
  }
  // The 32 that queued while the first scored form exactly one further
  // micro-batch.
  ServerCounters counts = harness.server->counters();
  EXPECT_EQ(counts.micro_batches, 2);
  EXPECT_EQ(counts.coalesced_requests, static_cast<long>(kRequests));
  EXPECT_EQ(gate.batch_rows(),
            (std::vector<size_t>{kRowsEach, kRequests * kRowsEach}));

  // A lone request is scored as its own batch: nothing waits for company.
  std::string lone;
  EncodePredictDense(parts.back(), &lone);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(lone, &response).ok());
  ASSERT_TRUE(response.ok()) << response.message;
  Result<std::vector<int>> want = loaded.predictor().Predict(parts.back());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(response.predictions,
            std::vector<int32_t>(want.value().begin(), want.value().end()));
  counts = harness.server->counters();
  EXPECT_EQ(counts.micro_batches, 3);
  EXPECT_EQ(counts.coalesced_requests, static_cast<long>(kRequests));
}

TEST(ServeNet, OversizedRequestIsShedBusy) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_busy.afpa");
  // A queue bound smaller than one request: deterministically BUSY.
  ServerOptions options;
  options.max_queue_rows = 4;
  TestServer harness(path, options);

  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  Matrix probe = ProbeRows(data, 16);
  std::string request;
  EncodePredictDense(probe, &request);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  EXPECT_EQ(response.error, ServeError::kBusy);
  // The connection survives shedding; a small request goes through.
  Matrix small = ProbeRows(data, 2);
  request.clear();
  EncodePredictDense(small, &request);
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  EXPECT_TRUE(response.ok()) << response.message;
  EXPECT_GE(harness.server->counters().busy_shed, 1);
}

TEST(ServeNet, SchemaMismatchIsTypedAndNonFatal) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_schema.afpa");
  TestServer harness(path);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  Matrix wrong(3, data.features.cols() + 3, 1.0);
  std::string request;
  EncodePredictDense(wrong, &request);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  EXPECT_EQ(response.error, ServeError::kSchemaMismatch);

  Matrix probe = ProbeRows(data, 2);
  request.clear();
  EncodePredictDense(probe, &request);
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  EXPECT_TRUE(response.ok());
}

TEST(ServeNet, GarbageGetsTypedErrorThenClose) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_garbage.afpa");
  TestServer harness(path);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  ASSERT_TRUE(client.SendBytes("complete nonsense, not a frame").ok());
  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  ServeResponse response;
  ASSERT_TRUE(DecodeResponseFrame(frame, &response));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(IsConnectionFatal(response.error))
      << ServeErrorName(response.error);
  // The server closes the desynced connection: the next read hits EOF.
  EXPECT_FALSE(client.RecvFrame(&frame).ok());
  // And the server itself is unharmed.
  BlockingFrameClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", harness.server->port()).ok());
  std::string ping;
  EncodePing(&ping);
  ASSERT_TRUE(fresh.RoundTrip(ping, &response).ok());
  EXPECT_TRUE(response.ok());
}

TEST(ServeNet, DeadClientIsATypedDisconnectNotAnError) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_dead.afpa");
  TestServer harness(path);
  Matrix probe = ProbeRows(data, 32);
  std::string request;
  EncodePredictDense(probe, &request);

  // A client that sends a pipelined burst and vanishes without reading a
  // byte back: the server's answer writes hit EPIPE/ECONNRESET. With
  // SIGPIPE ignored that must be a counted peer disconnect, never a
  // protocol error or a server death.
  {
    BlockingFrameClient deserter;
    ASSERT_TRUE(deserter.Connect("127.0.0.1", harness.server->port()).ok());
    std::string burst;
    for (int i = 0; i < 8; ++i) burst += request;
    ASSERT_TRUE(deserter.SendBytes(burst).ok());
    deserter.Close();
  }
  for (int i = 0;
       i < 500 && harness.server->counters().peer_disconnects < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(harness.server->counters().peer_disconnects, 1);
  EXPECT_EQ(harness.server->counters().protocol_errors, 0);

  // The server is unharmed: a well-behaved client still gets answers.
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  EXPECT_TRUE(response.ok()) << response.message;
}

TEST(ServeNet, SwapFrameSwapsAndFailedSwapKeepsServing) {
  Dataset data = TestData();
  const std::string path_a = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_swap_a.afpa");
  const std::string path_b = ExportTestArtifact(
      data, PreprocessorKind::kMinMaxScaler, "net_swap_b.afpa");
  Matrix probe = ProbeRows(data, 24);
  const std::vector<int32_t> want_b = ReferencePredictions(path_b, probe);

  TestServer harness(path_a);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()).ok());

  // A swap against a missing artifact is a typed error and nothing moves.
  std::string bad_swap;
  EncodeSwap(TempPath("net_swap_missing.afpa"), &bad_swap);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(bad_swap, &response).ok());
  EXPECT_EQ(response.error, ServeError::kUnavailable);
  EXPECT_EQ(harness.registry.Info().generation, 1);

  // A good swap answers kSwapped and scoring flips to the new artifact.
  std::string good_swap;
  EncodeSwap(path_b, &good_swap);
  ASSERT_TRUE(client.RoundTrip(good_swap, &response).ok());
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.type, FrameType::kSwapped);
  EXPECT_NE(response.message.find("generation=2"), std::string::npos)
      << response.message;

  std::string request;
  EncodePredictDense(probe, &request);
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.predictions, want_b);
  EXPECT_GE(harness.server->counters().swaps, 1);
}

TEST(ServeNet, RequestReloadBumpsGeneration) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_reload.afpa");
  TestServer harness(path);
  harness.server->RequestReload();
  // The reload is queued to the batch thread; wait for it to land.
  for (int i = 0; i < 200 && harness.registry.Info().generation < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness.registry.Info().generation, 2);
}

TEST(HotSwap, UnderConcurrentLoadResponsesAreNeverTorn) {
  Dataset data = TestData();
  const std::string path_a = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "hot_a.afpa");
  const std::string path_b = ExportTestArtifact(
      data, PreprocessorKind::kQuantileTransformer, "hot_b.afpa");
  Matrix probe = ProbeRows(data, 16);
  const std::vector<int32_t> want_a = ReferencePredictions(path_a, probe);
  const std::vector<int32_t> want_b = ReferencePredictions(path_b, probe);

  TestServer harness(path_a);
  const int port = harness.server->port();

  constexpr int kWorkers = 4;
  constexpr int kRequestsPerWorker = 150;
  std::atomic<long> torn{0};
  std::atomic<long> transport_errors{0};
  std::atomic<long> answered{0};
  std::vector<std::thread> workers;
  std::string request;
  EncodePredictDense(probe, &request);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      BlockingFrameClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++transport_errors;
        return;
      }
      for (int i = 0; i < kRequestsPerWorker; ++i) {
        ServeResponse response;
        if (!client.RoundTrip(request, &response).ok() || !response.ok()) {
          ++transport_errors;
          return;
        }
        ++answered;
        // The whole response must come from ONE artifact.
        if (response.predictions != want_a &&
            response.predictions != want_b) {
          ++torn;
        }
      }
    });
  }
  // Swap back and forth while the workers hammer the server, ending on B.
  for (const std::string* target : {&path_b, &path_a, &path_b}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    BlockingFrameClient admin;
    ASSERT_TRUE(admin.Connect("127.0.0.1", port).ok());
    std::string swap;
    EncodeSwap(*target, &swap);
    ServeResponse response;
    ASSERT_TRUE(admin.RoundTrip(swap, &response).ok());
    ASSERT_TRUE(response.ok()) << response.message;
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(answered.load(), kWorkers * kRequestsPerWorker);
  // The last swap won: a fresh request scores under artifact B.
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.predictions, want_b);
  EXPECT_EQ(harness.registry.Info().generation, 4);
}

TEST(ServeNet, StopDrainsCleanly) {
  Dataset data = TestData();
  const std::string path = ExportTestArtifact(
      data, PreprocessorKind::kStandardScaler, "net_stop.afpa");
  auto harness = std::make_unique<TestServer>(path);
  Matrix probe = ProbeRows(data, 8);
  BlockingFrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness->server->port()).ok());
  std::string request;
  EncodePredictDense(probe, &request);
  ServeResponse response;
  ASSERT_TRUE(client.RoundTrip(request, &response).ok());
  harness->server->Stop();
  // Stop is idempotent and the destructor after Stop is a no-op.
  harness->server->Stop();
  harness.reset();
}

}  // namespace
}  // namespace autofp
