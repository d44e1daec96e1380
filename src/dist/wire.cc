#include "dist/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "preprocess/pipeline_parse.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace autofp {
namespace {

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPodAt(const std::string& bytes, size_t* pos, T* value) {
  if (bytes.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void AppendString(std::string* out, const std::string& value) {
  AppendPod(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

bool ReadStringAt(const std::string& bytes, size_t* pos, std::string* value) {
  uint32_t size = 0;
  if (!ReadPodAt(bytes, pos, &size)) return false;
  if (bytes.size() - *pos < size) return false;
  value->assign(bytes.data() + *pos, size);
  *pos += size;
  return true;
}

void EncodeDistFrame(DistFrameType type, const std::string& payload,
                     std::string* out) {
  EncodeFrame(static_cast<FrameType>(type), payload, out);
}

bool FrameIs(const Frame& frame, DistFrameType type) {
  return frame.type == static_cast<uint8_t>(type);
}

}  // namespace

void EncodeHelloFrame(const DistHello& hello, std::string* out) {
  std::string payload;
  AppendPod(&payload, hello.dataset_fingerprint);
  EncodeDistFrame(DistFrameType::kHello, payload, out);
}

bool DecodeHelloFrame(const Frame& frame, DistHello* hello) {
  if (!FrameIs(frame, DistFrameType::kHello)) return false;
  size_t pos = 0;
  return ReadPodAt(frame.payload, &pos, &hello->dataset_fingerprint) &&
         pos == frame.payload.size();
}

void EncodeLeaseFrame(const DistLease& lease, std::string* out) {
  std::string payload;
  AppendPod(&payload, lease.lease_id);
  AppendString(&payload, lease.request.pipeline.ToString());
  AppendPod(&payload, lease.request.budget_fraction);
  AppendPod(&payload, lease.request.deadline_seconds);
  AppendPod(&payload, lease.request.seed);
  EncodeDistFrame(DistFrameType::kLease, payload, out);
}

bool DecodeLeaseFrame(const Frame& frame, DistLease* lease) {
  if (!FrameIs(frame, DistFrameType::kLease)) return false;
  size_t pos = 0;
  std::string spec_text;
  EvalRequest& request = lease->request;
  if (!ReadPodAt(frame.payload, &pos, &lease->lease_id) ||
      !ReadStringAt(frame.payload, &pos, &spec_text) ||
      !ReadPodAt(frame.payload, &pos, &request.budget_fraction) ||
      !ReadPodAt(frame.payload, &pos, &request.deadline_seconds) ||
      !ReadPodAt(frame.payload, &pos, &request.seed) ||
      pos != frame.payload.size()) {
    return false;
  }
  Result<PipelineSpec> spec = ParsePipelineSpec(spec_text);
  if (!spec.ok()) return false;
  request.pipeline = std::move(spec.value());
  return true;
}

void EncodeResultFrame(const DistResult& result, std::string* out) {
  std::string payload;
  AppendPod(&payload, result.lease_id);
  payload += EncodeJournalRecordPayload(result.record);
  EncodeDistFrame(DistFrameType::kResult, payload, out);
}

bool DecodeResultFrame(const Frame& frame, DistResult* result) {
  if (!FrameIs(frame, DistFrameType::kResult)) return false;
  size_t pos = 0;
  // The pipeline must parse: the coordinator turns the record back into
  // an Evaluation, which requires a valid spec.
  return ReadPodAt(frame.payload, &pos, &result->lease_id) &&
         DecodeJournalRecordPayload(frame.payload.data() + pos,
                                    frame.payload.size() - pos,
                                    &result->record) &&
         ParsePipelineSpec(result->record.pipeline).ok();
}

void EncodeShutdownFrame(std::string* out) {
  EncodeDistFrame(DistFrameType::kShutdown, std::string(), out);
}

bool SendFrameBytes(int fd, const std::string& bytes) {
  const char* data = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    ssize_t sent = ::send(fd, data, remaining, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking fd with a full buffer (the coordinator's end is
        // nonblocking): wait briefly for drain; a peer that never drains
        // is as dead as a closed one.
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        if (::poll(&pfd, 1, 5000) <= 0) return false;
        continue;
      }
      return false;
    }
    data += sent;
    remaining -= static_cast<size_t>(sent);
  }
  return true;
}

FrameChannel::RecvOutcome FrameChannel::Recv(Frame* frame, int timeout_ms) {
  for (;;) {
    ServeError error = ServeError::kNone;
    std::string detail;
    switch (decoder_.Next(frame, &error, &detail)) {
      case FrameDecoder::Outcome::kFrame:
        return RecvOutcome::kFrame;
      case FrameDecoder::Outcome::kBad:
        return RecvOutcome::kBad;
      case FrameDecoder::Outcome::kNeedMore:
        break;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0) return RecvOutcome::kTimeout;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return RecvOutcome::kClosed;
    }
    char buffer[4096];
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n == 0) return RecvOutcome::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return RecvOutcome::kClosed;
    }
    decoder_.Feed(buffer, static_cast<size_t>(n));
  }
}

bool FrameChannel::PeerClosed() const {
  char probe;
  ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0;
}

}  // namespace autofp
