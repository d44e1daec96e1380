#include "dist/worker.h"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/run_journal.h"
#include "preprocess/transform_cache.h"

namespace autofp {
namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parses one hook spec: either "N" (applies to every worker) or
/// "I=N[,J=M,...]" (per worker index). Absent/unmatched -> -1.
long ParseHookSpec(const char* spec, int worker_index) {
  if (spec == nullptr || *spec == '\0') return -1;
  if (std::strchr(spec, '=') == nullptr) return std::atol(spec);
  const char* cursor = spec;
  while (*cursor != '\0') {
    char* end = nullptr;
    long index = std::strtol(cursor, &end, 10);
    if (end == cursor || *end != '=') return -1;  // malformed: disable.
    cursor = end + 1;
    long value = std::strtol(cursor, &end, 10);
    if (end == cursor) return -1;
    if (index == worker_index) return value;
    cursor = (*end == ',') ? end + 1 : end;
  }
  return -1;
}

/// Sleeps for `seconds`, polling the channel for coordinator death every
/// ~100ms so a revoked straggler exits within one poll interval of its
/// coordinator disappearing.
bool StallWatchingPeer(FrameChannel* channel, double seconds) {
  const double end = MonotonicSeconds() + seconds;
  while (MonotonicSeconds() < end) {
    if (channel->PeerClosed()) return false;  // coordinator died.
    ::usleep(100 * 1000);
  }
  return true;
}

}  // namespace

WorkerHooks WorkerHooksFromEnv(int worker_index) {
  WorkerHooks hooks;
  hooks.crash_after_results =
      ParseHookSpec(std::getenv("AUTOFP_WORKER_CRASH_AFTER_EVALS"),
                    worker_index);
  hooks.stall_after_results =
      ParseHookSpec(std::getenv("AUTOFP_WORKER_STALL_AFTER_EVALS"),
                    worker_index);
  const char* stall_seconds = std::getenv("AUTOFP_WORKER_STALL_SECONDS");
  if (stall_seconds != nullptr && *stall_seconds != '\0') {
    hooks.stall_seconds = std::atof(stall_seconds);
  }
  return hooks;
}

int RunDistWorker(int fd, uint64_t dataset_fingerprint,
                  EvaluatorInterface* evaluator, const WorkerHooks& hooks) {
  FrameChannel channel(fd);
  TransformScratch scratch;
  long results_sent = 0;
  bool stalled_once = false;

  DistHello hello;
  hello.dataset_fingerprint = dataset_fingerprint;
  std::string bytes;
  EncodeHelloFrame(hello, &bytes);
  if (!channel.Send(bytes)) return 0;  // coordinator already gone.

  for (;;) {
    Frame frame;
    switch (channel.Recv(&frame)) {
      case FrameChannel::RecvOutcome::kClosed:
        return 0;  // orphaned: coordinator died, exit cleanly.
      case FrameChannel::RecvOutcome::kBad:
        return 1;  // desynced coordinator stream; nothing to salvage.
      case FrameChannel::RecvOutcome::kTimeout:
        continue;
      case FrameChannel::RecvOutcome::kFrame:
        break;
    }

    if (frame.type == static_cast<uint8_t>(DistFrameType::kShutdown)) {
      return 0;
    }
    DistLease lease;
    if (!DecodeLeaseFrame(frame, &lease)) return 1;

    // An orphan whose coordinator died after sending this lease should
    // not burn CPU on an answer nobody reads.
    if (channel.PeerClosed()) return 0;
    // The crash point fires as the worker takes a request, so the
    // simulated crash always strands a leased, unanswered request.
    if (hooks.crash_after_results > 0 &&
        results_sent >= hooks.crash_after_results) {
      std::_Exit(kWorkerCrashExitCode);
    }

    const double start = MonotonicSeconds();
    Evaluation evaluation = evaluator->Evaluate(lease.request, &scratch);
    const double elapsed = MonotonicSeconds() - start;

    if (!stalled_once && hooks.stall_after_results >= 0 &&
        results_sent >= hooks.stall_after_results) {
      stalled_once = true;
      if (!StallWatchingPeer(&channel, hooks.stall_seconds)) return 0;
    }

    DistResult result;
    result.lease_id = lease.lease_id;
    result.record = MakeJournalRecord(evaluation, lease.request.seed, elapsed);
    bytes.clear();
    EncodeResultFrame(result, &bytes);
    if (!channel.Send(bytes)) return 0;  // coordinator died mid-lease.
    ++results_sent;
  }
}

}  // namespace autofp
