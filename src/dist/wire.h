#ifndef AUTOFP_DIST_WIRE_H_
#define AUTOFP_DIST_WIRE_H_

/// The distributed-search wire protocol (see DESIGN.md "Distributed
/// search") — the coordinator/worker message surface layered on the serve
/// framing (serve/protocol.h): every message is one length-prefixed,
/// CRC-protected frame reassembled by the same FrameDecoder, so a worker
/// that writes garbage (partial frame, flipped bits, wrong magic) is
/// detected the same way a misbehaving network client is. Dist frame
/// types live in their own range (>= 128) so a dist frame can never be
/// confused with a serve request or response.
///
/// A worker says HELLO once, then answers each LEASE (one request) with
/// one RESULT until SHUTDOWN. A worker holds at most one lease, so the
/// RESULT itself frees it.
///
/// Evaluator outcomes travel in the run journal's own record encoding
/// (EncodeJournalRecordPayload): one serialization of an outcome, whether
/// it crosses a process boundary or lands on disk.

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "core/evaluator.h"
#include "core/run_journal.h"
#include "serve/protocol.h"

namespace autofp {

/// Dist frame types. Kept >= 128: serve requests are < 64 and serve
/// responses < 128, so the ranges never collide on a shared decoder.
enum class DistFrameType : uint8_t {
  /// worker -> coordinator, once at startup: the fingerprint of the
  /// dataset the worker actually mapped.
  kHello = 128,
  /// coordinator -> worker: a lease over one EvalRequest.
  kLease = 129,
  /// worker -> coordinator: the outcome that answers a lease.
  kResult = 130,
  /// coordinator -> worker: drain and exit cleanly.
  kShutdown = 132,
};

/// Exit code a worker uses at its injected kill point
/// (AUTOFP_WORKER_CRASH_AFTER_EVALS) so the chaos harness can tell an
/// injected worker crash from a real failure. Distinct from the
/// coordinator's kCrashPointExitCode (86).
inline constexpr int kWorkerCrashExitCode = 87;

/// Worker startup announcement.
struct DistHello {
  /// DatasetFingerprint of the dataset the worker loaded; the coordinator
  /// refuses to lease work to a worker evaluating against different data.
  uint64_t dataset_fingerprint = 0;
};

/// One lease: one request a single worker is responsible for until the
/// coordinator's deadline. The coordinator numbers leases from 1 and
/// never reuses an id.
struct DistLease {
  uint64_t lease_id = 0;
  EvalRequest request;
};

/// The outcome that answers lease `lease_id`, as a journal record
/// (journal-grade encoding; the coordinator re-journals it through the
/// single choke point). A result whose id is not the worker's current
/// lease is stale and ignored.
struct DistResult {
  uint64_t lease_id = 0;
  JournalRecord record;
};

/// Frame encoders: each appends one complete framed message to `*out`.
void EncodeHelloFrame(const DistHello& hello, std::string* out);
void EncodeLeaseFrame(const DistLease& lease, std::string* out);
void EncodeResultFrame(const DistResult& result, std::string* out);
void EncodeShutdownFrame(std::string* out);

/// Frame decoders: each returns false unless `frame` is a well-formed
/// message of the matching type (wrong type byte, short payload, trailing
/// bytes and unparseable pipeline specs all fail). Every length is
/// checked against the bytes present before anything is allocated.
bool DecodeHelloFrame(const Frame& frame, DistHello* hello);
bool DecodeLeaseFrame(const Frame& frame, DistLease* lease);
bool DecodeResultFrame(const Frame& frame, DistResult* result);

/// Writes all of `bytes` to `fd` (EINTR-safe, SIGPIPE suppressed).
/// Returns false on any hard error — EPIPE/ECONNRESET when the peer died.
bool SendFrameBytes(int fd, const std::string& bytes);

/// Blocking frame channel over one socket fd — the worker's view of its
/// coordinator pipe (the coordinator multiplexes many fds with poll() and
/// uses FrameDecoder directly). Does not own the fd.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}

  enum class RecvOutcome {
    kFrame,    ///< *frame holds one complete message.
    kClosed,   ///< peer closed (or unrecoverable read error).
    kBad,      ///< framing error; the stream is desynced.
    kTimeout,  ///< timeout_ms elapsed without a complete frame.
  };

  /// Waits up to `timeout_ms` (-1 = forever) for one complete frame.
  RecvOutcome Recv(Frame* frame, int timeout_ms = -1);

  bool Send(const std::string& bytes) { return SendFrameBytes(fd_, bytes); }

  /// Nonblocking probe: true once the peer's end is closed. The worker's
  /// orphan detection — a coordinator that died (crash, SIGKILL) closes
  /// its end of the socketpair by process exit.
  bool PeerClosed() const;

  int fd() const { return fd_; }

 private:
  int fd_;
  FrameDecoder decoder_;
};

}  // namespace autofp

#endif  // AUTOFP_DIST_WIRE_H_
