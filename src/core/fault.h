#ifndef AUTOFP_CORE_FAULT_H_
#define AUTOFP_CORE_FAULT_H_

/// Fault-tolerant evaluation: the failure taxonomy for pipeline
/// evaluations, a deterministic fault injector for robustness testing, and
/// the retry/quarantine policy applied by the search framework.
///
/// Real Auto-FP runs hit degenerate transforms, NaN/Inf propagation and
/// diverging models; sklearn pipelines *throw* in these cases. Instead of
/// recording garbage accuracies (or crashing mid-budget), every evaluation
/// carries a typed outcome, failed evaluations record a penalty score
/// flagged as failed, and the search continues. See DESIGN.md
/// ("Failure semantics").

#include <atomic>
#include <string>

#include "util/random.h"
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
  /// Synthetic failure injected by a FaultInjector.
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

/// Configuration of a FaultInjector. Rates are per evaluation attempt.
struct FaultInjectorConfig {
  /// Probability an attempt fails outright with kInjected.
  double fault_rate = 0.0;
  /// Probability an attempt is slowed down (additively, by
  /// `slowdown_seconds` of simulated wall-clock). Slowdowns count against
  /// the per-evaluation deadline, so with a deadline set they surface as
  /// kDeadlineExceeded.
  double slowdown_rate = 0.0;
  double slowdown_seconds = 0.0;
  uint64_t seed = 0x5EEDFA17;
};

/// What the injector decided for one evaluation attempt.
struct InjectionDecision {
  EvalFailure failure = EvalFailure::kNone;  ///< kNone or kInjected.
  double delay_seconds = 0.0;                ///< simulated slowdown.
};

/// Deterministic, seeded fault injector. Every decision is a pure
/// function of (config, stream key): two injectors with identical configs
/// produce identical decisions for identical keys, so faulty runs are
/// exactly reproducible — including under concurrent evaluation, where
/// call *order* is nondeterministic but stream keys (request seeds) are
/// not. Thread-safe: the statistics counters are atomic.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectorConfig& config);

  /// Decision for the evaluation attempt identified by `stream` (usually
  /// the EvalRequest seed). Pure in the decision, counting in the stats.
  InjectionDecision DecisionFor(uint64_t stream);

  const FaultInjectorConfig& config() const { return config_; }
  long num_decisions() const {
    return num_decisions_.load(std::memory_order_relaxed);
  }
  long num_injected_faults() const {
    return num_injected_faults_.load(std::memory_order_relaxed);
  }
  long num_injected_slowdowns() const {
    return num_injected_slowdowns_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjectorConfig config_;
  std::atomic<long> num_decisions_{0};
  std::atomic<long> num_injected_faults_{0};
  std::atomic<long> num_injected_slowdowns_{0};
};

/// Retry/quarantine policy applied by SearchContext around every
/// evaluation (Algorithm 1 Step 4). Transient failures are retried with
/// bounded exponential backoff; permanent failures quarantine the pipeline
/// so it is never evaluated again.
struct FaultPolicy {
  /// Maximum retry attempts for a transient failure (0 disables retries).
  int max_retries = 2;
  /// Real sleep before the first retry; each further retry multiplies it.
  /// The default is 0 (no sleeping) so searches and tests stay fast.
  double initial_backoff_seconds = 0.0;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.1;
  /// Quarantine pipelines whose failure is permanent (non-transient).
  bool quarantine = true;

  /// Backoff before retry attempt `retry_index` (1-based), bounded.
  double BackoffSeconds(int retry_index) const;
};

/// Sleeps for the policy's backoff before retry `retry_index` (no-op for a
/// non-positive backoff).
void BackoffSleep(const FaultPolicy& policy, int retry_index);

}  // namespace autofp

#endif  // AUTOFP_CORE_FAULT_H_
