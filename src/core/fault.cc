#include "core/fault.h"

#include "util/random.h"

namespace autofp {

const char* EvalFailureName(EvalFailure failure) {
  switch (failure) {
    case EvalFailure::kNone:
      return "OK";
    case EvalFailure::kNonFiniteOutput:
      return "NonFiniteOutput";
    case EvalFailure::kDegenerateTransform:
      return "DegenerateTransform";
    case EvalFailure::kModelDiverged:
      return "ModelDiverged";
    case EvalFailure::kDeadlineExceeded:
      return "DeadlineExceeded";
    case EvalFailure::kInjected:
      return "Injected";
    case EvalFailure::kWorkerLost:
      return "WorkerLost";
  }
  return "Unknown";
}

EvalFailure FailureFromStatus(const Status& status) {
  if (status.ok()) return EvalFailure::kNone;
  switch (status.code()) {
    case StatusCode::kOutOfRange:
      return EvalFailure::kNonFiniteOutput;
    case StatusCode::kInvalidArgument:
      return EvalFailure::kDegenerateTransform;
    default:
      return EvalFailure::kModelDiverged;
  }
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

InjectionDecision DecideInjection(const FaultInjectorConfig& config,
                                  uint64_t stream) {
  InjectionDecision decision;
  if (config.fault_rate <= 0.0 && config.slowdown_rate <= 0.0) {
    return decision;
  }
  // One short seeded generator per decision keeps each decision a pure
  // function of (config seed, stream key), independent of call order.
  Rng rng(SplitMix64(config.seed ^ SplitMix64(stream)));
  bool fault = rng.Bernoulli(config.fault_rate);
  bool slow = rng.Bernoulli(config.slowdown_rate);
  if (fault) {
    decision.failure = EvalFailure::kInjected;
  } else if (slow) {
    decision.delay_seconds = config.slowdown_seconds;
  }
  return decision;
}

}  // namespace autofp
