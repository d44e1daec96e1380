#ifndef AUTOFP_SERVE_SERVER_H_
#define AUTOFP_SERVE_SERVER_H_

/// The concurrent serving front end (see DESIGN.md "Network serving").
/// Two threads turn socket bytes into PredictSharded calls:
///
///   I/O thread    poll(2) over the listen socket, the wake pipe and
///                 every connection; decodes frames
///                 (serve/protocol.h), applies admission control, and
///                 flushes response bytes. Never blocks on scoring.
///   batch thread  pops parsed requests FIFO and group-commits: the
///                 first predict plus every same-width predict already
///                 queued behind it (bounded by max_batch_rows) form one
///                 matrix, with no wait for requests not yet queued. It
///                 scores the whole micro-batch with ONE Acquire()'d
///                 predictor through PredictSharded, and splits the
///                 answers back per request. Under load requests queue
///                 while a batch scores, so batches grow without a timer.
///
/// Because every response in a micro-batch comes from exactly one
/// registry acquisition, a SWAP landing under live traffic can only
/// produce whole-batch old-artifact or whole-batch new-artifact answers —
/// never a torn mix. Responses flow strictly FIFO per connection
/// (admission rejections included), so pipelined clients stay in sync.
/// Past `max_queue_rows` pending rows the server sheds load with a typed
/// BUSY response instead of queueing without bound.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/status.h"

namespace autofp {

/// Post-scoring tap on the batch thread: called once per successfully
/// scored micro-batch with the batch's input rows, the predictions, and
/// the predictor that produced them (the one Acquire() covering the whole
/// batch). Implementations run synchronously on the batch thread — keep
/// them cheap (the streaming drift monitor is O(rows * cols) counter
/// updates) and do not block. Defined here, implemented by src/stream/'s
/// StreamController, so the serve layer never depends on the stream
/// layer.
class ServeBatchObserver {
 public:
  virtual ~ServeBatchObserver() = default;
  virtual void OnBatchScored(const Matrix& rows,
                             const std::vector<int>& predictions,
                             const Predictor& predictor) = 0;
  /// The observer's counters as flat JSON keys without braces, spliced
  /// into the server's stats snapshot; empty when it has none. Called
  /// from any thread.
  virtual std::string CountersJson() const { return ""; }
};

struct ServerOptions {
  /// Bind address. Port 0 binds an ephemeral port (read it back with
  /// port() after Start()).
  std::string host = "127.0.0.1";
  int port = 0;
  /// Micro-batcher: coalesce the predict requests already queued when
  /// the batch thread wakes, up to this many rows per PredictSharded
  /// call. It never waits for more.
  size_t max_batch_rows = 2048;
  /// Admission control: when the pending-row queue already holds this
  /// many rows, further predict requests get a BUSY response. A single
  /// request larger than the bound is always shed.
  size_t max_queue_rows = 1u << 16;
  /// Shard size handed to PredictSharded for each micro-batch.
  size_t shard_rows = 256;
  /// Listen backlog.
  int backlog = 128;
  /// Optional post-scoring tap (non-owning; must outlive the server).
  ServeBatchObserver* batch_observer = nullptr;
};

/// Monotonic counters over the server's lifetime.
struct ServerCounters {
  long connections_accepted = 0;
  long frames_received = 0;
  long predict_requests = 0;
  long predict_rows = 0;
  long micro_batches = 0;    ///< PredictSharded calls issued.
  long coalesced_requests = 0;  ///< predict requests that shared a batch.
  long busy_shed = 0;        ///< requests rejected by admission control.
  long protocol_errors = 0;  ///< malformed frames (fatal and non-fatal).
  long swaps = 0;            ///< SWAP/reload requests that succeeded.
  /// Connections the peer closed — EOF on read, or EPIPE/ECONNRESET on
  /// write (a client that vanished without reading its responses). A
  /// typed, counted connection close: with SIGPIPE ignored process-wide
  /// it can never kill the server, and it is not a protocol error.
  long peer_disconnects = 0;
};

class ServeSocketServer {
 public:
  /// `registry` must outlive the server; it is shared with whoever else
  /// wants to swap artifacts (SIGHUP handler, background re-search, ...).
  ServeSocketServer(ArtifactRegistry* registry, ServerOptions options);
  ~ServeSocketServer();
  ServeSocketServer(const ServeSocketServer&) = delete;
  ServeSocketServer& operator=(const ServeSocketServer&) = delete;

  /// Binds, listens, and spawns the I/O + batch threads.
  Status Start();

  /// Graceful drain: stop accepting, answer everything already queued,
  /// flush, close. Idempotent.
  void Stop();

  /// The bound port (after Start()).
  int port() const { return port_; }

  /// Queues a reload of the registry's current artifact (the SIGHUP
  /// path). Processed by the batch thread in queue order; the outcome is
  /// reported to stderr. Safe from signal-adjacent contexts (not
  /// async-signal-safe itself — call it from the main loop, not the
  /// handler).
  void RequestReload();

  ServerCounters counters() const;

  /// The whole stats snapshot as one flat JSON object: registry
  /// generation, artifact path, pipeline and model, every ServerCounters
  /// field, the live predictor's latency (ServeStatsJson), the batch
  /// observer's CountersJson and, last, "uptime_s", the seconds since
  /// Start(). The served rate is predict_rows / uptime_s (between two
  /// snapshots, the ratio of their differences); the latency keys'
  /// rows_per_second is scoring capacity. The STATS frame answers
  /// with it; the listen tool prints it on SIGUSR1 and at shutdown.
  /// Thread-safe.
  std::string StatsJson() const;

 private:
  struct Connection;
  struct Pending;
  class Poller;

  void IoLoop();
  void BatchLoop();

  // --- I/O-thread helpers (own connections_). ---
  void AcceptNew();
  void HandleReadable(int fd);
  void HandleWritable(int fd);
  void CloseConnection(int fd);
  /// Parses every complete frame buffered on `conn`, enqueueing work.
  void DrainDecoder(Connection* conn);
  /// Queues `response` for `conn` in FIFO order with its requests.
  void EnqueueResolved(Connection* conn, ServeResponse response);
  void FlushConnection(Connection* conn);
  void UpdateInterest(Connection* conn);
  /// Moves completed responses from outgoing_ into connection buffers.
  void DrainOutgoing();
  void WakeIo();

  // --- Batch-thread helpers. ---
  /// Scores one micro-batch (requests all share a column count).
  void ExecuteBatch(std::vector<Pending> batch);
  void ExecuteAdmin(const Pending& item);
  /// Hands encoded response bytes back to the I/O thread.
  void PostResponse(uint64_t conn_id, const ServeResponse& response);

  ArtifactRegistry* const registry_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: batch thread -> I/O thread.
  int port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point start_time_{};  ///< Set by Start().

  // I/O-thread state (no lock: touched only by the I/O thread after
  // Start()).
  std::unique_ptr<Poller> poller_;
  std::map<int, Connection> connections_;  ///< keyed by fd.
  uint64_t next_conn_id_ = 1;

  // Shared queues.
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Pending> pending_;
  size_t pending_rows_ = 0;
  bool batcher_done_ = false;
  struct Outgoing {
    uint64_t conn_id;
    std::string bytes;
  };
  std::deque<Outgoing> outgoing_;

  mutable std::mutex counters_mutex_;
  ServerCounters counters_;

  /// Batch-thread-only concat scratch; reused so steady-state coalescing
  /// stops allocating.
  Matrix batch_scratch_;

  std::thread io_thread_;
  std::thread batch_thread_;
};

}  // namespace autofp

#endif  // AUTOFP_SERVE_SERVER_H_
