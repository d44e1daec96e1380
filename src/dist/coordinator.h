#ifndef AUTOFP_DIST_COORDINATOR_H_
#define AUTOFP_DIST_COORDINATOR_H_

/// The distributed-evaluation coordinator (see DESIGN.md "Distributed
/// search"): a DistributedEvaluator behind EvaluatorInterface that leases
/// EvalRequests one at a time to whichever worker process is idle, over
/// CRC-framed socketpairs, and merges their outcomes back into request
/// order. A worker holds at most one lease, so its slot carries the
/// lease itself (id, round slot, attempts, deadline) and its RESULT frees
/// it; there is no separate lease table. Because every evaluation is a
/// pure function of its request (EvalRequest::DeriveSeed), a re-leased
/// request reproduces the crashed worker's missing outcome exactly — so
/// worker death, straggler revocation and corrupt frames cost
/// wall-clock, never determinism, and the coordinator-side journal
/// (SearchContext's single choke point, one layer up) is byte-identical
/// to a single-process run.
///
/// Failure policy per lease: a worker that crashes (EOF), straggles past
/// the lease deadline, or desyncs its frame stream loses the lease; its
/// request is re-leased up to max_lease_attempts times, then resolved
/// locally (allow_local_fallback) or reported as the transient
/// EvalFailure::kWorkerLost so the search framework's existing
/// retry/quarantine taxonomy decides the terminal outcome.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "dist/wire.h"
#include "util/status.h"

namespace autofp {

/// Spawns one worker process that runs the worker loop on `child_fd`
/// (its end of the socketpair, inherited across fork/exec). Returns the
/// child pid. The coordinator owns reaping.
using WorkerSpawner = std::function<Result<pid_t>(int worker_index,
                                                  int child_fd)>;

/// Production spawner: fork + execv of `argv_prefix` with
/// "--worker-fd N --worker-index I" appended (the CLI's hidden worker
/// entrypoint). argv_prefix[0] must be the executable path.
WorkerSpawner ExecWorkerSpawner(std::vector<std::string> argv_prefix);

/// Test/bench spawner: fork only, no exec — the child runs `worker_main`
/// (fd, worker_index) -> exit code in the forked image, inheriting the
/// parent's dataset by copy-on-write. The child closes every other
/// inherited fd first so sibling pipes and EOF detection stay correct.
WorkerSpawner InProcessWorkerSpawner(
    std::function<int(int fd, int worker_index)> worker_main);

/// Coordinator tuning knobs. There is no lease size: every lease carries
/// one request, pulled by the next idle worker, so a round's requests
/// spread over the whole fleet and a crash strands at most one of them.
struct DistOptions {
  int num_workers = 2;
  /// Seconds a worker may hold a lease before it is revoked as a
  /// straggler (the worker is killed and the request re-leased).
  double lease_deadline_seconds = 30.0;
  /// Times one request may be leased before it resolves without workers
  /// (locally, or as kWorkerLost).
  int max_lease_attempts = 3;
  /// When nonzero, a worker HELLO carrying a different dataset
  /// fingerprint is refused (killed and counted as a spawn failure).
  uint64_t expected_dataset_fingerprint = 0;
  /// When the fleet is unusable (spawns failing, respawn budget gone),
  /// evaluate remaining requests in-process via the local evaluator —
  /// outcome-identical, just slower. When false, exhausted requests
  /// report EvalFailure::kWorkerLost instead.
  bool allow_local_fallback = true;
};

/// Observability counters (monotonic over the evaluator's lifetime).
struct DistStats {
  long workers_spawned = 0;
  long worker_crashes = 0;        ///< deaths observed (EOF on the pipe).
  long straggler_revocations = 0; ///< leases revoked past deadline.
  long corrupt_frame_revocations = 0;
  long hello_rejects = 0;         ///< fingerprint-mismatched workers.
  long leases_issued = 0;
  long re_leases = 0;             ///< leases re-issued after revocation.
  long stale_results = 0;         ///< RESULTs not for the sender's lease.
  long local_fallback_evals = 0;
  long worker_lost_evals = 0;     ///< kWorkerLost outcomes reported.
};

/// Multi-process evaluation engine. Single-threaded: EvaluateAll runs a
/// poll(2) event loop over the worker pipes on the calling thread, so it
/// composes with the journal choke point exactly like the sequential
/// engine (journaling happens caller-side, after EvaluateAll returns).
/// Mutually exclusive with the search's thread pool by construction (the
/// SearchContext CHECK enforces num_threads == 1 when workers are on).
class DistributedEvaluator : public EvaluatorInterface {
 public:
  /// `local` must outlive this evaluator; it answers BaselineAccuracy and
  /// the local-fallback path.
  DistributedEvaluator(EvaluatorInterface* local, WorkerSpawner spawner,
                       DistOptions options);
  ~DistributedEvaluator() override;
  DistributedEvaluator(const DistributedEvaluator&) = delete;
  DistributedEvaluator& operator=(const DistributedEvaluator&) = delete;

  /// Spawns the initial fleet. Idempotent; also called lazily by the
  /// first EvaluateAll. Spawn failures are not fatal — the evaluator
  /// degrades to local fallback.
  void Start();

  /// Graceful fleet teardown: SHUTDOWN frames, bounded wait, SIGKILL for
  /// anything still alive. Idempotent; the destructor calls it.
  void Shutdown();

  Evaluation Evaluate(const EvalRequest& request) override;
  std::vector<Evaluation> EvaluateAll(
      const std::vector<EvalRequest>& requests) override;
  bool SupportsConcurrentBatches() const override { return true; }
  double BaselineAccuracy() override { return local_->BaselineAccuracy(); }

  const DistStats& stats() const { return stats_; }
  /// Live worker processes right now (for tests and the CLI report).
  int live_workers() const;

 private:
  struct Worker {
    int index = -1;
    pid_t pid = -1;
    int fd = -1;          ///< coordinator end of the socketpair; -1 = dead.
    bool ready = false;   ///< HELLO received and accepted.
    /// The worker's one outstanding lease; 0 = idle. The other lease
    /// fields are meaningful only while it is nonzero.
    uint64_t lease_id = 0;
    size_t slot = 0;      ///< the round slot the lease answers.
    int attempts = 0;     ///< times that slot has been leased, this one too.
    double deadline = 0.0;  ///< expiry on MonotonicSeconds' clock.
    std::unique_ptr<FrameDecoder> decoder;  ///< fresh per spawn.
  };

  /// A round slot awaiting a lease: a fresh request, or one a revoked
  /// lease left unanswered.
  struct PendingSlot {
    size_t slot = 0;
    int attempts = 0;  ///< times this slot has been leased so far.
  };

  /// Per-EvaluateAll mutable state, threaded through the helpers.
  struct Round {
    const std::vector<EvalRequest>* requests = nullptr;
    std::vector<Evaluation>* results = nullptr;
    size_t remaining = 0;
    std::deque<PendingSlot> queue;
  };

  bool SpawnWorker(int index);
  void MaintainFleet();
  /// Tears down a worker: requeues its leased slot, closes the pipe,
  /// optionally SIGKILLs, reaps the pid.
  void FailWorker(Worker* worker, bool kill, Round* round);
  void AssignLeases(Round* round);
  void PollWorkers(Round* round);
  /// Drains every decodable frame a worker has buffered.
  void ReadWorker(Worker* worker, Round* round);
  void HandleFrame(Worker* worker, const Frame& frame, Round* round);
  void ExpireLeases(Round* round);
  /// Resolves a slot that exhausted its lease attempts (local fallback
  /// or kWorkerLost).
  void ResolveWithoutWorkers(const PendingSlot& pending, Round* round);
  bool AnySpawnableWorker() const;

  EvaluatorInterface* local_;
  WorkerSpawner spawner_;
  DistOptions options_;
  std::vector<Worker> workers_;
  uint64_t next_lease_id_ = 1;
  DistStats stats_;
  int respawn_budget_ = 0;
  int consecutive_spawn_failures_ = 0;
  bool spawning_disabled_ = false;
  bool started_ = false;
  TransformScratch scratch_;  ///< local-fallback transform buffers.
};

}  // namespace autofp

#endif  // AUTOFP_DIST_COORDINATOR_H_
