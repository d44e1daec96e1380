/// The two serving workloads. Each builds an in-process deployment the
/// way `autofp_serve listen` does (ArtifactRegistry -> ServeSocketServer,
/// optionally a StreamController as batch observer), over an artifact
/// exported from kServeDataset, and drives it through real sockets:
///
///   serve_small_open  open loop, one generator thread, 4 connections,
///                     16-row dense requests at a fixed 16000 req/s;
///                     latency from each request's scheduled send time.
///   serve_bulk_dense  closed loop, 2 connections with one thread each,
///                     1024-row dense frames encoded before timing.
///
/// --seed orders the rows the requests carry. Every response is checked
/// against an in-process Predictor::Predict of the same rows.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/benchmark_suite.h"
#include "e2e.h"
#include "preprocess/pipeline_parse.h"
#include "serve/artifact.h"
#include "serve/predictor.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/controller.h"
#include "util/timer.h"

namespace e2e {

namespace {

using namespace autofp;

/// Traffic drawn from the export data must look quiet to the default
/// drift monitor. sylvine_syn's heavy-tailed columns trip it on 540 of 800
/// permuted 512-row windows; robot_syn (4364 x 24) on none, with a largest
/// statistic of 0.13 against the 0.5 threshold.
constexpr const char* kServeDataset = "robot_syn";
constexpr int kPredictorThreads = 2;
constexpr int kSetupReps = 40;
constexpr std::chrono::milliseconds kSetupSpacing{50};
constexpr int kOpenConnections = 4;
constexpr double kOpenRate = 16000.0;  // requests per second.
constexpr size_t kOpenRows = 16;
/// An open-loop row counts toward throughput only when answered within
/// this long of its due time, so a server that falls behind the offered
/// rate shows as lost throughput, not only as latency.
constexpr double kLatencyLimitMs = 5.0;
constexpr int kBulkConnections = 2;
constexpr size_t kBulkRows = 1024;
constexpr size_t kBulkFrames = 8;
constexpr double kWindowSeconds = 0.5;

/// The batch observer the bench hangs on the server: times each
/// StreamController::OnBatchScored call on the batch thread.
class TimedObserver : public ServeBatchObserver {
 public:
  TimedObserver(StreamController* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void OnBatchScored(const Matrix& rows, const std::vector<int>& predictions,
                     const Predictor& predictor) override {
    const double start = tracer_->NowUs();
    inner_->OnBatchScored(rows, predictions, predictor);
    const double end = tracer_->NowUs();
    if (spans_.load(std::memory_order_relaxed)) {
      tracer_->Record("stream.observe", start, end);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    observe_us_.push_back(end - start);
  }

  void set_spans(bool on) { spans_.store(on, std::memory_order_relaxed); }
  std::vector<double> observe_us() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return observe_us_;
  }

 private:
  StreamController* const inner_;
  Tracer* const tracer_;
  std::atomic<bool> spans_{false};
  mutable std::mutex mutex_;
  std::vector<double> observe_us_;
};

/// One deployment: what `autofp_serve listen` assembles.
struct ServeStack {
  std::string artifact_path;
  std::unique_ptr<ArtifactRegistry> registry;
  std::unique_ptr<StreamController> stream;
  std::unique_ptr<TimedObserver> observer;
  std::unique_ptr<ServeSocketServer> server;

  void Stop() {
    server->Stop();
    if (stream != nullptr) stream->WaitForResearch();
  }
};

struct Workload {
  std::string name;
  std::string pipeline;
  ModelKind model;
  bool open_loop;  ///< also hangs the stream layer on the server.
};

/// Builds and starts a deployment from the artifact at `artifact_path`,
/// the way `autofp_serve listen` does before it accepts traffic, and
/// stores how long that took in `*setup_s`.
std::unique_ptr<ServeStack> StartStack(const RunOptions& options,
                                       const Workload& workload,
                                       const std::string& artifact_path,
                                       Tracer* tracer, Report* report,
                                       double* setup_s) {
  auto stack = std::make_unique<ServeStack>();
  stack->artifact_path = artifact_path;
  Stopwatch setup;
  PredictorOptions predictor_options;
  predictor_options.num_threads = kPredictorThreads;
  stack->registry = std::make_unique<ArtifactRegistry>(predictor_options);
  Status swapped = stack->registry->Swap(stack->artifact_path);
  AUTOFP_CHECK(swapped.ok()) << swapped.ToString();
  ServerOptions server_options;
  if (workload.open_loop) {
    StreamConfig stream_config;
    stream_config.research.candidate_path =
        options.workdir + "/candidate.afpa";
    stack->stream = std::make_unique<StreamController>(stack->registry.get(),
                                                       stream_config);
    stack->observer =
        std::make_unique<TimedObserver>(stack->stream.get(), tracer);
    server_options.batch_observer = stack->observer.get();
  }
  stack->server = std::make_unique<ServeSocketServer>(stack->registry.get(),
                                                      server_options);
  Status started = stack->server->Start();
  report->Check(started.ok(), "server start: " + started.ToString());
  *setup_s = setup.ElapsedSeconds();
  return stack;
}

/// Request frames encoded before timing starts. Frame f carries pool rows
/// (f * rows + j) mod pool size, with their expected predictions and labels.
struct Frames {
  std::vector<std::string> bytes;
  std::vector<Matrix> matrices;
  std::vector<std::vector<int>> expected;
  std::vector<std::vector<int>> labels;
};

Frames MakeFrames(const Dataset& pool, const std::vector<int>& expected,
                  size_t rows, size_t count) {
  Frames frames;
  for (size_t f = 0; f < count; ++f) {
    std::vector<size_t> indices;
    std::vector<int> want;
    std::vector<int> labels;
    for (size_t j = 0; j < rows; ++j) {
      const size_t row = (f * rows + j) % pool.num_rows();
      indices.push_back(row);
      want.push_back(expected[row]);
      labels.push_back(pool.labels[row]);
    }
    Matrix matrix = pool.features.SelectRows(indices);
    std::string bytes;
    EncodePredictDense(matrix, &bytes);
    frames.bytes.push_back(std::move(bytes));
    frames.matrices.push_back(std::move(matrix));
    frames.expected.push_back(std::move(want));
    frames.labels.push_back(std::move(labels));
  }
  return frames;
}

/// What the client side of a load phase saw.
struct LoadResult {
  double elapsed_s = 0.0;
  long sent = 0;
  long answered_rows = 0;
  long on_time_rows = 0;  ///< open loop: answered within kLatencyLimitMs.
  long correct_labels = 0;
  long errors = 0;      ///< transport failures, error responses, missing.
  long busy = 0;        ///< BUSY sheds.
  long mismatches = 0;  ///< predictions that differ from Predictor::Predict.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< open loop: send time past schedule.
  std::vector<long> window_rows;  ///< closed loop: rows answered per window.
  std::string first_error;

  /// Closed loop: answered rows per second, the mean over the middle half
  /// of the windows, ranked by rate, when there are at least four; else
  /// the total over the phase. (A median would be a whole number of frames
  /// per window, a 1.2% step at 1024-row frames.)
  double RowsPerSecond() const {
    if (window_rows.size() < 4) return answered_rows / elapsed_s;
    std::vector<long> sorted = window_rows;
    std::sort(sorted.begin(), sorted.end());
    const size_t quarter = sorted.size() / 4;
    double rows = 0.0;
    for (size_t w = quarter; w < sorted.size() - quarter; ++w) {
      rows += static_cast<double>(sorted[w]);
    }
    return rows / ((sorted.size() - 2 * quarter) * kWindowSeconds);
  }

  void Merge(const LoadResult& other) {
    answered_rows += other.answered_rows;
    on_time_rows += other.on_time_rows;
    correct_labels += other.correct_labels;
    errors += other.errors;
    busy += other.busy;
    mismatches += other.mismatches;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// Scores one response against the frame it answers.
void CheckResponse(const ServeResponse& response, const Frames& frames,
                   size_t frame, LoadResult* result) {
  if (!response.ok()) {
    if (response.error == ServeError::kBusy) {
      ++result->busy;
    } else {
      ++result->errors;
      if (result->first_error.empty()) {
        result->first_error = std::string(ServeErrorName(response.error)) +
                              ": " + response.message;
      }
    }
    return;
  }
  const std::vector<int>& want = frames.expected[frame];
  bool same = response.predictions.size() == want.size();
  for (size_t j = 0; same && j < want.size(); ++j) {
    same = response.predictions[j] == want[j];
  }
  if (!same) {
    ++result->mismatches;
    return;
  }
  result->answered_rows += static_cast<long>(want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    result->correct_labels += want[j] == frames.labels[frame][j] ? 1 : 0;
  }
}

int ConnectLocal(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Open loop: request i is due at start + i / rate and goes out on
/// connection i mod kOpenConnections, whatever happened to earlier
/// requests. Each connection has a reader thread; responses come back in
/// FIFO order per connection, so the reader knows which request each one
/// answers and times it from that request's due time.
LoadResult RunOpenLoop(int port, const Frames& frames, double seconds,
                       Tracer* tracer, bool spans) {
  LoadResult result;
  std::vector<int> fds;
  for (int c = 0; c < kOpenConnections; ++c) {
    const int fd = ConnectLocal(port);
    if (fd < 0) {
      ++result.errors;
      result.first_error = "connect failed";
      for (int open : fds) ::close(open);
      return result;
    }
    fds.push_back(fd);
  }
  const double interval_us = 1e6 / kOpenRate;
  const double start_us = tracer->NowUs() + 1000.0;
  std::vector<std::atomic<long>> sent(kOpenConnections);
  std::atomic<bool> done{false};
  std::vector<LoadResult> per_connection(kOpenConnections);
  std::vector<std::thread> readers;
  for (int c = 0; c < kOpenConnections; ++c) {
    readers.emplace_back([&, c] {
      LoadResult& mine = per_connection[c];
      FrameDecoder decoder;
      char chunk[65536];
      long received = 0;
      double drain_deadline_us = -1.0;
      for (;;) {
        if (done.load(std::memory_order_acquire)) {
          if (received == sent[c].load(std::memory_order_acquire)) break;
          if (drain_deadline_us < 0) drain_deadline_us = tracer->NowUs() + 5e6;
          if (tracer->NowUs() > drain_deadline_us) {
            mine.errors += sent[c].load() - received;
            mine.first_error = "responses missing after the drain timeout";
            break;
          }
        }
        struct pollfd pfd = {fds[c], POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) continue;
        const ssize_t n = ::recv(fds[c], chunk, sizeof(chunk), 0);
        if (n <= 0) {
          mine.errors += sent[c].load() - received;
          mine.first_error = "connection closed by the server";
          break;
        }
        const double now_us = tracer->NowUs();
        decoder.Feed(chunk, static_cast<size_t>(n));
        Frame frame;
        ServeError error = ServeError::kNone;
        std::string detail;
        while (decoder.Next(&frame, &error, &detail) ==
               FrameDecoder::Outcome::kFrame) {
          const long i = received * kOpenConnections + c;
          const double due_us = start_us + static_cast<double>(i) * interval_us;
          const double latency_ms = (now_us - due_us) * 1e-3;
          ++received;
          mine.latency_ms.push_back(latency_ms);
          if (spans) {
            tracer->Record("serve.request", due_us, now_us, 0,
                           static_cast<uint64_t>(i) + 1);
          }
          ServeResponse response;
          if (!DecodeResponseFrame(frame, &response)) {
            ++mine.errors;
            continue;
          }
          const long answered = mine.answered_rows;
          CheckResponse(response, frames,
                        static_cast<size_t>(i) % frames.bytes.size(), &mine);
          if (latency_ms <= kLatencyLimitMs) {
            mine.on_time_rows += mine.answered_rows - answered;
          }
        }
      }
    });
  }

  // The generator sleeps with the finest timer slack so it can keep a
  // 62.5 us schedule; when it wakes late it sends every overdue request at
  // once, and the lateness is reported.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double end_us = start_us + seconds * 1e6;
  for (long i = 0;; ++i) {
    const double due_us = start_us + static_cast<double>(i) * interval_us;
    if (due_us >= end_us) break;
    double now_us = tracer->NowUs();
    if (now_us < due_us) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(due_us - now_us));
      now_us = tracer->NowUs();
    }
    result.late_ms.push_back(std::max(0.0, now_us - due_us) * 1e-3);
    const int c = static_cast<int>(i % kOpenConnections);
    const std::string& bytes =
        frames.bytes[static_cast<size_t>(i) % frames.bytes.size()];
    size_t offset = 0;
    bool failed = false;
    while (offset < bytes.size()) {
      const ssize_t n = ::send(fds[c], bytes.data() + offset,
                               bytes.size() - offset, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        failed = true;
        break;
      }
      offset += static_cast<size_t>(n);
    }
    if (failed) {
      ++result.errors;
      result.first_error = "send failed";
      break;
    }
    ++result.sent;
    sent[c].fetch_add(1, std::memory_order_release);
  }
  result.elapsed_s = (tracer->NowUs() - start_us) * 1e-6;
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  for (int fd : fds) ::close(fd);
  for (const LoadResult& mine : per_connection) result.Merge(mine);
  return result;
}

/// Closed loop: each connection's thread sends its next frame when the
/// previous answer arrives. Answered rows are also counted per
/// kWindowSeconds window, so the reported rate can leave out windows a
/// stall of the shared host emptied, which a total over the phase cannot.
LoadResult RunClosedLoop(int port, const Frames& frames, double seconds,
                         Tracer* tracer, bool spans) {
  std::vector<LoadResult> per_connection(kBulkConnections);
  const size_t windows = static_cast<size_t>(seconds / kWindowSeconds);
  for (LoadResult& mine : per_connection) mine.window_rows.assign(windows, 0);
  std::vector<std::thread> threads;
  const double start_us = tracer->NowUs();
  for (int c = 0; c < kBulkConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& mine = per_connection[c];
      BlockingFrameClient client;
      Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        ++mine.errors;
        mine.first_error = connected.ToString();
        return;
      }
      for (size_t k = 0;; ++k) {
        const double begin_us = tracer->NowUs();
        if (begin_us - start_us >= seconds * 1e6) break;
        const size_t frame = (c + k * kBulkConnections) % frames.bytes.size();
        ServeResponse response;
        ++mine.sent;
        Status status = client.RoundTrip(frames.bytes[frame], &response);
        const double end_us = tracer->NowUs();
        if (!status.ok()) {
          ++mine.errors;
          mine.first_error = status.ToString();
          return;
        }
        mine.latency_ms.push_back((end_us - begin_us) * 1e-3);
        if (spans) {
          tracer->Record("serve.request", begin_us, end_us, 0,
                         static_cast<uint64_t>(c) << 32 | (k + 1));
        }
        const long answered = mine.answered_rows;
        CheckResponse(response, frames, frame, &mine);
        const size_t window =
            static_cast<size_t>((end_us - start_us) * 1e-6 / kWindowSeconds);
        if (window < windows) {
          mine.window_rows[window] += mine.answered_rows - answered;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadResult result;
  result.elapsed_s = (tracer->NowUs() - start_us) * 1e-6;
  result.window_rows.assign(windows, 0);
  for (const LoadResult& mine : per_connection) {
    result.sent += mine.sent;
    result.Merge(mine);
    for (size_t w = 0; w < windows; ++w) {
      result.window_rows[w] += mine.window_rows[w];
    }
  }
  return result;
}

/// Replays the serving layers on the workload's own frames: frame decode
/// and request parse, response encode, transform then predict at the
/// micro-batch size the server formed, and the whole PredictSharded call
/// the batch thread makes for such a batch (returns its median, ms). Also
/// replays the artifact's pipeline step by step for the per-kind
/// preprocessor costs.
double ReplayServeLayers(const ServeStack& stack, const Frames& frames,
                         const Dataset& data, double batch_rows,
                         Report* report) {
  std::vector<double> decode_us;
  std::vector<double> encode_us;
  for (size_t f = 0; f < frames.bytes.size() && f < 256; ++f) {
    Stopwatch decode;
    FrameDecoder decoder;
    decoder.Feed(frames.bytes[f].data(), frames.bytes[f].size());
    Frame frame;
    ServeError error = ServeError::kNone;
    std::string detail;
    ServeRequest request;
    const bool parsed = decoder.Next(&frame, &error, &detail) ==
                            FrameDecoder::Outcome::kFrame &&
                        ParseRequestFrame(frame, &request, &detail) ==
                            ServeError::kNone;
    decode_us.push_back(decode.ElapsedSeconds() * 1e6);
    report->Check(parsed && request.rows == frames.matrices[f],
                  "replay: a request frame did not decode to its rows");
    ServeResponse response;
    response.type = FrameType::kPredictions;
    response.predictions.assign(frames.expected[f].begin(),
                                frames.expected[f].end());
    std::string bytes;
    Stopwatch encode;
    EncodeResponse(response, &bytes);
    encode_us.push_back(encode.ElapsedSeconds() * 1e6);
  }
  report->Set("serve.decode_us_p50", Median(decode_us));
  report->Set("serve.encode_us_p50", Median(encode_us));

  ArtifactReadResult read = ReadArtifact(stack.artifact_path);
  PredictorOptions predictor_options;
  predictor_options.num_threads = kPredictorThreads;
  Predictor::LoadResult reference =
      Predictor::Load(stack.artifact_path, predictor_options);
  report->Check(read.ok() && reference.ok(),
                "replay: cannot read the artifact back");
  if (!read.ok() || !reference.ok()) return 0.0;
  const PipelineSpec spec = read.artifact.spec;
  FittedPipeline pipeline = FittedPipeline::FromFittedSteps(
      read.artifact.spec, std::move(read.artifact.fitted_steps));
  const Classifier& model = *read.artifact.model;
  const size_t batch = std::max<size_t>(1, std::lround(batch_rows));
  double transform_us = 0.0;
  double model_us = 0.0;
  std::vector<double> sharded_ms;
  size_t rows = 0;
  Matrix scratch;
  for (size_t begin = 0; rows < 40000;
       begin = (begin + batch) % data.num_rows()) {
    std::vector<size_t> indices;
    for (size_t j = 0; j < batch; ++j) {
      indices.push_back((begin + j) % data.num_rows());
    }
    const Matrix batch_matrix = data.features.SelectRows(indices);
    Stopwatch transform;
    pipeline.TransformInto(batch_matrix, &scratch);
    transform_us += transform.ElapsedSeconds() * 1e6;
    Stopwatch predict;
    const std::vector<int> predictions = model.PredictBatch(scratch);
    model_us += predict.ElapsedSeconds() * 1e6;
    rows += batch;
    Stopwatch sharded;
    Result<std::vector<int>> want = reference.predictor().PredictSharded(
        batch_matrix, ServerOptions().shard_rows);
    sharded_ms.push_back(sharded.ElapsedSeconds() * 1e3);
    report->Check(want.ok() && want.value() == predictions,
                  "replay: transform + predict differs from the predictor");
  }
  report->Set("serve.transform_us_per_row", transform_us / rows);
  report->Set("serve.model_us_per_row", model_us / rows);

  KindCosts costs;
  Matrix train = data.features;
  Matrix valid = frames.matrices.front();
  costs.Replay(spec, &train, &valid);
  costs.ReportTo(report);
  return Median(sharded_ms);
}

void RunServeWorkload(const RunOptions& options, const Workload& workload,
                      Tracer* tracer, Report* report) {
  // The deployment's inputs: the export data, and the artifact that
  // `autofp --export-artifact` writes before a deployment starts. Export
  // is a single-threaded model fit whose time moved by 1.5x with the load
  // of other tenants on the reference host, so it is a per-layer
  // diagnostic and set-up time is what `autofp_serve listen` does.
  Stopwatch data_watch;
  Result<Dataset> suite = GetSuiteDataset(kServeDataset);
  AUTOFP_CHECK(suite.ok()) << suite.status().ToString();
  const Dataset data = std::move(suite).value();
  report->Set("setup.data_s", data_watch.ElapsedSeconds());
  Result<PipelineSpec> spec = ParsePipelineSpec(workload.pipeline);
  AUTOFP_CHECK(spec.ok()) << spec.status().ToString();
  const std::string artifact_path =
      options.workdir + "/" + workload.name + ".afpa";
  Stopwatch export_watch;
  Result<ArtifactSchema> exported =
      ExportArtifact(artifact_path, data, spec.value(),
                     ModelConfig::Defaults(workload.model));
  AUTOFP_CHECK(exported.ok()) << exported.status().ToString();
  report->Set("setup.export_s", export_watch.ElapsedSeconds());

  // Set up several times for a steady set-up time, after one untimed
  // set-up that pays the process's first-touch costs; serve from the last.
  // The set-ups are kSetupSpacing apart: on the reference host
  // back-to-back set-ups ran at one of two speeds 1.45x apart, switching as
  // the load of other tenants came and went, so their median gave the
  // speed of one instant.
  std::vector<double> setup;
  std::unique_ptr<ServeStack> stack;
  const int setups = options.quick ? 1 : 1 + kSetupReps;
  for (int i = 0; i < setups; ++i) {
    if (stack != nullptr) {
      stack->Stop();
      std::this_thread::sleep_for(kSetupSpacing);
    }
    double setup_s = 0.0;
    stack = StartStack(options, workload, artifact_path, tracer, report,
                       &setup_s);
    if (i == 0 && setups > 1) continue;
    setup.push_back(setup_s);
  }
  if (!report->correct()) return;

  // The expected answers come from a separately loaded predictor scoring
  // the same rows in one unsharded call.
  const Dataset pool = PermuteRows(data, options.seed);
  Predictor::LoadResult reference = Predictor::Load(stack->artifact_path);
  AUTOFP_CHECK(reference.ok()) << reference.status().ToString();
  Result<std::vector<int>> expected =
      reference.predictor().Predict(pool.features);
  AUTOFP_CHECK(expected.ok()) << expected.status().ToString();
  const bool open = workload.open_loop;
  const Frames frames =
      open ? MakeFrames(pool, expected.value(), kOpenRows,
                        pool.num_rows() / kOpenRows)
           : MakeFrames(pool, expected.value(), kBulkRows, kBulkFrames);

  // A traced run spends its first half untraced and its second half
  // traced, so the two halves give the tracing overhead.
  const double seconds = options.quick ? 0.5 : options.seconds;
  auto load = [&](double length, bool spans) {
    if (stack->observer != nullptr) stack->observer->set_spans(spans);
    return open ? RunOpenLoop(stack->server->port(), frames, length, tracer,
                              spans)
                : RunClosedLoop(stack->server->port(), frames, length,
                                tracer, spans);
  };
  const LoadResult measured = load(options.traced() ? seconds / 2 : seconds,
                                   false);
  LoadResult traced;
  if (options.traced()) traced = load(seconds / 2, true);
  stack->Stop();

  long failed = 0;
  const LoadResult* results[] = {&measured, &traced};
  for (const LoadResult* result : results) {
    failed += result->errors + result->busy + result->mismatches;
    report->AddOps(result->sent, 0);
    report->Check(result->mismatches == 0,
                  std::to_string(result->mismatches) +
                      " responses differ from Predictor::Predict");
    report->Check(result->errors == 0,
                  std::to_string(result->errors) +
                      " transport or error responses: " + result->first_error);
  }
  report->AddOps(0, failed);

  const ServerCounters counters = stack->server->counters();
  std::shared_ptr<const Predictor> live = stack->registry->Acquire();
  const ServeStats predict = live->stats();
  if (stack->stream != nullptr) {
    const StreamCounters stream = stack->stream->counters();
    report->Check(stream.drift_triggers == 0,
                  "quiet traffic raised a drift trigger");
    report->Set("stream.windows_compared",
                static_cast<double>(stream.windows_compared));
    report->Set("stream.drift_triggers",
                static_cast<double>(stream.drift_triggers));
    const std::vector<double> observe_us = stack->observer->observe_us();
    report->Set("stream.observe_us_p50", Median(observe_us));
    report->Set("stream.observe_us_p99", Percentile(observe_us, 0.99));
  }

  const double p50 = Median(measured.latency_ms);
  report->Set("setup_s", Median(setup));
  report->Set("throughput", open ? measured.on_time_rows / measured.elapsed_s
                                 : measured.RowsPerSecond());
  report->Set("latency_ms", p50);
  report->Set("accuracy", measured.answered_rows > 0
                              ? static_cast<double>(measured.correct_labels) /
                                    measured.answered_rows
                              : 0.0);
  if (!options.traced()) return;

  report->Set("serve.predict_ms_p50", predict.p50_ms);
  report->Set("serve.predict_ms_p99", predict.p99_ms);
  report->Set("serve.predict_busy_share",
              predict.busy_seconds /
                  ((measured.elapsed_s + traced.elapsed_s) *
                   kPredictorThreads));
  const double batch_rows =
      counters.micro_batches > 0
          ? static_cast<double>(counters.predict_rows) / counters.micro_batches
          : 0.0;
  report->Set("serve.batch_rows_mean", batch_rows);
  report->Set("serve.coalesced_share",
              counters.predict_requests > 0
                  ? static_cast<double>(counters.coalesced_requests) /
                        counters.predict_requests
                  : 0.0);
  report->Set("serve.busy_shed", static_cast<double>(counters.busy_shed));
  report->Set("tail.p99_ms", Percentile(measured.latency_ms, 0.99));
  report->Set("tail.p999_ms", Percentile(measured.latency_ms, 0.999));
  report->Set("tail.p9999_ms", Percentile(measured.latency_ms, 0.9999));
  report->Set("tail.samples", static_cast<double>(measured.latency_ms.size()));
  report->Set("loadgen.late_ms_p99", Percentile(measured.late_ms, 0.99));
  report->Set("loadgen.late_ms_max",
              measured.late_ms.empty()
                  ? 0.0
                  : *std::max_element(measured.late_ms.begin(),
                                      measured.late_ms.end()));
  report->Set("trace.overhead_frac",
              open ? Median(traced.latency_ms) / p50 - 1.0
                   : measured.RowsPerSecond() / traced.RowsPerSecond() - 1.0);

  const double batch_ms =
      ReplayServeLayers(*stack, frames, data, batch_rows, report);
  // What no layer measurement explains: queueing, batching delay, socket
  // I/O. Scoring counts as one micro-batch's PredictSharded call.
  const double wait_ms = p50 - batch_ms -
                         (report->Get("serve.decode_us_p50") +
                          report->Get("serve.encode_us_p50")) *
                             1e-3;
  report->Set("serve.wait_ms_p50", wait_ms);
  report->Set("trace.unexplained_frac", p50 > 0.0 ? wait_ms / p50 : 0.0);
}

}  // namespace

void RunServeSmallOpen(const RunOptions& options, Tracer* tracer,
                       Report* report) {
  RunServeWorkload(options,
                   {"serve_small_open", "StandardScaler -> PowerTransformer",
                    ModelKind::kLogisticRegression, /*open_loop=*/true},
                   tracer, report);
}

void RunServeBulkDense(const RunOptions& options, Tracer* tracer,
                       Report* report) {
  RunServeWorkload(options,
                   {"serve_bulk_dense", "QuantileTransformer -> StandardScaler",
                    ModelKind::kXgboost, /*open_loop=*/false},
                   tracer, report);
}

}  // namespace e2e
