#ifndef AUTOFP_CORE_FAULT_H_
#define AUTOFP_CORE_FAULT_H_

/// Fault-tolerant evaluation: the failure taxonomy for pipeline
/// evaluations, the deterministic injection decision for robustness
/// testing, and the retry/quarantine policy. SearchContext applies both at
/// its one evaluation point (Algorithm 1 Step 4), so every evaluator, the
/// distributed coordinator included, sees injected faults alike.
///
/// Real Auto-FP runs hit degenerate transforms, NaN/Inf propagation and
/// diverging models; sklearn pipelines *throw* in these cases. Instead of
/// recording garbage accuracies (or crashing mid-budget), every evaluation
/// carries a typed outcome, failed evaluations record a penalty score
/// flagged as failed, and the search continues. See DESIGN.md
/// ("Failure semantics").

#include <cstdint>

#include "util/status.h"

namespace autofp {

/// Why a pipeline evaluation failed. kNone means success.
enum class EvalFailure : int {
  kNone = 0,
  /// The fitted pipeline produced NaN/Inf feature values.
  kNonFiniteOutput,
  /// The transform collapsed the data (empty output, or every entry
  /// identical — no information left for the downstream model).
  kDegenerateTransform,
  /// The downstream classifier produced a non-finite score.
  kModelDiverged,
  /// The per-evaluation deadline elapsed before a score was produced.
  kDeadlineExceeded,
  /// Synthetic failure drawn by DecideInjection.
  kInjected,
  /// The distributed worker holding this evaluation's lease died (or was
  /// revoked as a straggler) and every re-lease attempt was exhausted.
  /// Transient: the pipeline itself is not implicated, so the search
  /// framework's retry rounds may still evaluate it elsewhere.
  kWorkerLost,
};

/// Human-readable name ("NonFiniteOutput" etc.; "OK" for kNone).
const char* EvalFailureName(EvalFailure failure);

/// Transient failures may succeed on retry (injected faults are drawn per
/// attempt; deadlines can be timing flakes). Permanent failures are
/// deterministic properties of the pipeline and are quarantined instead.
inline bool IsTransientFailure(EvalFailure failure) {
  return failure == EvalFailure::kInjected ||
         failure == EvalFailure::kDeadlineExceeded ||
         failure == EvalFailure::kWorkerLost;
}

/// Score recorded for a failed evaluation: the worst possible accuracy, so
/// search algorithms steer away from failing pipelines without any special
/// casing. Always finite (never NaN) so best-tracking stays sound.
inline constexpr double kPenaltyAccuracy = 0.0;

/// Maps a pipeline/evaluation Status to the taxonomy: OutOfRange carries
/// non-finite output, InvalidArgument a degenerate transform; anything
/// else is treated as model divergence.
EvalFailure FailureFromStatus(const Status& status);

/// Configuration of fault injection (SearchOptions::fault_injection).
/// Rates are per evaluation attempt; all zero (the default) injects
/// nothing.
struct FaultInjectorConfig {
  /// Probability an attempt fails outright with kInjected.
  double fault_rate = 0.0;
  /// Probability an attempt is slowed down by `slowdown_seconds` of
  /// simulated wall-clock (no real sleep). A slowdown at or past the
  /// request's deadline resolves as kDeadlineExceeded; a shorter one only
  /// adds its delay to the outcome's prep time.
  double slowdown_rate = 0.0;
  double slowdown_seconds = 0.0;
  uint64_t seed = 0x5EEDFA17;
};

/// What the injector decided for one evaluation attempt.
struct InjectionDecision {
  EvalFailure failure = EvalFailure::kNone;  ///< kNone or kInjected.
  double delay_seconds = 0.0;                ///< simulated slowdown.
};

/// The injection decision for the attempt identified by `stream` (the
/// EvalRequest seed). A pure function of (config, stream), so faulty runs
/// reproduce exactly at any thread count, worker count or resume point:
/// call order never enters.
InjectionDecision DecideInjection(const FaultInjectorConfig& config,
                                  uint64_t stream);

/// Retry/quarantine policy applied by SearchContext around every
/// evaluation (Algorithm 1 Step 4). Transient failures are retried at
/// once with a re-derived attempt seed; permanent failures quarantine the
/// pipeline so it is never evaluated again.
struct FaultPolicy {
  /// Maximum retry attempts for a transient failure (0 disables retries).
  int max_retries = 2;
};

}  // namespace autofp

#endif  // AUTOFP_CORE_FAULT_H_
