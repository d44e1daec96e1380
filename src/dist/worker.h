#ifndef AUTOFP_DIST_WORKER_H_
#define AUTOFP_DIST_WORKER_H_

/// The distributed worker loop (see DESIGN.md "Distributed search"): a
/// worker process connects back to its coordinator over an inherited
/// socketpair fd, announces itself (HELLO with the fingerprint of the
/// dataset it mapped), then answers each LEASE, which carries one
/// request, with one RESULT frame, so the coordinator loses at most the
/// in-flight evaluation when the worker dies. Workers never
/// retry (the coordinator owns the retry/quarantine taxonomy) and never
/// touch the journal (the coordinator's single choke point journals every
/// outcome). A worker whose coordinator dies sees EOF/EPIPE on the pipe
/// and exits cleanly — orphan detection needs no signals or timers.

#include "core/evaluator.h"
#include "dist/wire.h"

namespace autofp {

/// Deterministic failure-injection hooks, the worker-side extension of
/// the journal's AUTOFP_CRASH_AFTER_APPENDS kill point. Counters count
/// RESULT frames successfully sent by this worker process.
struct WorkerHooks {
  /// Hard-exit (std::_Exit(kWorkerCrashExitCode), a simulated crash)
  /// when taking the next leased request after this many results were
  /// sent, so the crash strands that request. <= 0 disables.
  long crash_after_results = -1;
  /// Stall (simulated straggler) before sending result N+1; the stall
  /// polls for coordinator death so a revoked worker still exits.
  /// < 0 disables; fires once.
  long stall_after_results = -1;
  double stall_seconds = 3600.0;
};

/// Parses hooks from the environment:
///   AUTOFP_WORKER_CRASH_AFTER_EVALS / AUTOFP_WORKER_STALL_AFTER_EVALS —
///     either "N" (every worker) or "I=N[,J=M,...]" (per worker index);
///   AUTOFP_WORKER_STALL_SECONDS — stall duration (default 3600).
WorkerHooks WorkerHooksFromEnv(int worker_index);

/// Runs the worker loop on `fd` until shutdown. Returns the process exit
/// code: 0 for a clean exit (SHUTDOWN frame or coordinator death), 1 on
/// a protocol error from the coordinator.
int RunDistWorker(int fd, uint64_t dataset_fingerprint,
                  EvaluatorInterface* evaluator, const WorkerHooks& hooks);

}  // namespace autofp

#endif  // AUTOFP_DIST_WORKER_H_
