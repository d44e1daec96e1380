#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/checksum.h"
#include "util/csv.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace autofp {

namespace {

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPodAt(const std::string& bytes, size_t* pos, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kPredictCsv:
    case FrameType::kPredictDense:
    case FrameType::kSwap:
    case FrameType::kStats:
    case FrameType::kPing:
    case FrameType::kPredictions:
    case FrameType::kError:
    case FrameType::kSwapped:
    case FrameType::kStatsReport:
    case FrameType::kPong:
      return true;
  }
  return false;
}

/// CRC over the frame content after the magic: type, payload_len, payload.
uint32_t FrameCrc(uint8_t type, uint32_t payload_len,
                  const char* payload) {
  uint32_t crc = Crc32(&type, sizeof(type));
  crc = Crc32(&payload_len, sizeof(payload_len), crc);
  return Crc32(payload, payload_len, crc);
}

}  // namespace

const char* ServeErrorName(ServeError error) {
  switch (error) {
    case ServeError::kNone:
      return "OK";
    case ServeError::kBadMagic:
      return "BadMagic";
    case ServeError::kFrameTooLarge:
      return "FrameTooLarge";
    case ServeError::kBadCrc:
      return "BadCrc";
    case ServeError::kTruncated:
      return "Truncated";
    case ServeError::kBadType:
      return "BadType";
    case ServeError::kMalformedBody:
      return "MalformedBody";
    case ServeError::kSchemaMismatch:
      return "SchemaMismatch";
    case ServeError::kPredictFailed:
      return "PredictFailed";
    case ServeError::kBusy:
      return "Busy";
    case ServeError::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

bool IsConnectionFatal(ServeError error) {
  switch (error) {
    case ServeError::kBadMagic:
    case ServeError::kFrameTooLarge:
    case ServeError::kBadCrc:
    case ServeError::kTruncated:
      return true;
    default:
      return false;
  }
}

// --- Frame encoding ---------------------------------------------------------

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  AUTOFP_CHECK_LE(payload.size(), kMaxFramePayload);
  const uint8_t type_byte = static_cast<uint8_t>(type);
  const uint32_t payload_len = static_cast<uint32_t>(payload.size());
  out->reserve(out->size() + payload.size() + 13);
  AppendPod(out, kFrameMagic);
  AppendPod(out, type_byte);
  AppendPod(out, payload_len);
  out->append(payload);
  AppendPod(out, FrameCrc(type_byte, payload_len, payload.data()));
}

void EncodePredictCsv(const std::string& csv_rows, std::string* out) {
  EncodeFrame(FrameType::kPredictCsv, csv_rows, out);
}

void EncodePredictDense(const Matrix& rows, std::string* out) {
  std::string payload;
  payload.reserve(8 + rows.rows() * rows.cols() * sizeof(double));
  AppendPod(&payload, static_cast<uint32_t>(rows.rows()));
  AppendPod(&payload, static_cast<uint32_t>(rows.cols()));
  payload.append(reinterpret_cast<const char*>(rows.Raw()),
                 rows.size() * sizeof(double));
  EncodeFrame(FrameType::kPredictDense, payload, out);
}

void EncodeSwap(const std::string& artifact_path, std::string* out) {
  EncodeFrame(FrameType::kSwap, artifact_path, out);
}

void EncodeStats(std::string* out) {
  EncodeFrame(FrameType::kStats, std::string(), out);
}

void EncodePing(std::string* out) {
  EncodeFrame(FrameType::kPing, std::string(), out);
}

void EncodeResponse(const ServeResponse& response, std::string* out) {
  switch (response.type) {
    case FrameType::kError: {
      std::string payload;
      AppendPod(&payload, static_cast<uint16_t>(response.error));
      payload.append(response.message);
      EncodeFrame(FrameType::kError, payload, out);
      return;
    }
    case FrameType::kPredictions: {
      std::string payload;
      payload.reserve(4 + response.predictions.size() * sizeof(int32_t));
      AppendPod(&payload,
                static_cast<uint32_t>(response.predictions.size()));
      payload.append(
          reinterpret_cast<const char*>(response.predictions.data()),
          response.predictions.size() * sizeof(int32_t));
      EncodeFrame(FrameType::kPredictions, payload, out);
      return;
    }
    case FrameType::kSwapped:
    case FrameType::kStatsReport:
      EncodeFrame(response.type, response.message, out);
      return;
    default:
      EncodeFrame(FrameType::kPong, std::string(), out);
      return;
  }
}

bool DecodeResponseFrame(const Frame& frame, ServeResponse* response) {
  *response = ServeResponse();
  response->type = frame.frame_type();
  switch (frame.frame_type()) {
    case FrameType::kPredictions: {
      size_t pos = 0;
      uint32_t count = 0;
      if (!ReadPodAt(frame.payload, &pos, &count)) return false;
      if (frame.payload.size() - pos != count * sizeof(int32_t)) return false;
      response->predictions.resize(count);
      std::memcpy(response->predictions.data(), frame.payload.data() + pos,
                  count * sizeof(int32_t));
      return true;
    }
    case FrameType::kError: {
      size_t pos = 0;
      uint16_t code = 0;
      if (!ReadPodAt(frame.payload, &pos, &code)) return false;
      response->error = static_cast<ServeError>(code);
      if (response->error == ServeError::kNone) return false;
      response->message = frame.payload.substr(pos);
      return true;
    }
    case FrameType::kSwapped:
    case FrameType::kStatsReport:
      response->message = frame.payload;
      return true;
    case FrameType::kPong:
      return frame.payload.empty();
    default:
      return false;
  }
}

// --- Incremental frame decoding ---------------------------------------------

void FrameDecoder::Feed(const char* data, size_t size) {
  if (bad_) return;
  // Compact the consumed prefix before it grows without bound.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Outcome FrameDecoder::Next(Frame* frame, ServeError* error,
                                         std::string* detail) {
  *error = ServeError::kNone;
  detail->clear();
  if (bad_) {
    *error = ServeError::kBadMagic;
    *detail = "stream already desynced";
    return Outcome::kBad;
  }
  const size_t available = buffer_.size() - pos_;
  // Fixed header: magic u32 | type u8 | payload_len u32.
  if (available < 9) return Outcome::kNeedMore;
  size_t pos = pos_;
  uint32_t magic = 0;
  uint8_t type = 0;
  uint32_t payload_len = 0;
  ReadPodAt(buffer_, &pos, &magic);
  ReadPodAt(buffer_, &pos, &type);
  ReadPodAt(buffer_, &pos, &payload_len);
  if (magic != kFrameMagic) {
    bad_ = true;
    *error = ServeError::kBadMagic;
    *detail = "frame does not start with the protocol magic";
    return Outcome::kBad;
  }
  if (payload_len > kMaxFramePayload) {
    bad_ = true;
    *error = ServeError::kFrameTooLarge;
    *detail = "declared payload of " + std::to_string(payload_len) +
              " bytes exceeds the " + std::to_string(kMaxFramePayload) +
              "-byte frame bound";
    return Outcome::kBad;
  }
  if (available < 9 + static_cast<size_t>(payload_len) + 4) {
    return Outcome::kNeedMore;
  }
  const char* payload = buffer_.data() + pos;
  pos += payload_len;
  uint32_t stored_crc = 0;
  ReadPodAt(buffer_, &pos, &stored_crc);
  if (stored_crc != FrameCrc(type, payload_len, payload)) {
    bad_ = true;
    *error = ServeError::kBadCrc;
    *detail = "frame CRC mismatch";
    return Outcome::kBad;
  }
  frame->type = type;
  frame->payload.assign(payload, payload_len);
  pos_ = pos;
  return Outcome::kFrame;
}

// --- Payload parsing and execution ------------------------------------------

bool ParseCsvRows(const std::string& text, Matrix* rows,
                  std::string* reason) {
  std::vector<std::vector<double>> parsed;
  size_t width = 0;
  size_t start = 0;
  long line_number = 0;
  while (start <= text.size()) {
    size_t newline = text.find('\n', start);
    const size_t end = newline == std::string::npos ? text.size() : newline;
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (newline == std::string::npos) break;
      continue;
    }
    std::vector<double> cells;
    std::string cell_reason;
    if (!ParseCsvRow(line, &cells, &cell_reason)) {
      *reason = "row " + std::to_string(line_number) + ": " + cell_reason;
      return false;
    }
    if (parsed.empty()) {
      width = cells.size();
    } else if (cells.size() != width) {
      *reason = "row " + std::to_string(line_number) + ": has " +
                std::to_string(cells.size()) + " columns, previous rows " +
                std::to_string(width);
      return false;
    }
    parsed.push_back(std::move(cells));
    if (newline == std::string::npos) break;
  }
  if (parsed.empty()) {
    *reason = "no data rows";
    return false;
  }
  rows->Resize(parsed.size(), width);
  for (size_t r = 0; r < parsed.size(); ++r) {
    std::copy(parsed[r].begin(), parsed[r].end(), rows->RowPtr(r));
  }
  return true;
}

bool FitRowsToSchema(Matrix* rows, uint64_t input_cols, std::string* reason) {
  if (rows->cols() == input_cols) return true;
  if (rows->cols() == input_cols + 1) {
    // Drop the trailing training-label column (`autofp --apply` dumps).
    Matrix narrowed(rows->rows(), input_cols);
    for (size_t r = 0; r < rows->rows(); ++r) {
      const double* src = rows->RowPtr(r);
      std::copy(src, src + input_cols, narrowed.RowPtr(r));
    }
    *rows = std::move(narrowed);
    return true;
  }
  *reason = "expected " + std::to_string(input_cols) + " columns, got " +
            std::to_string(rows->cols());
  return false;
}

ServeError ParseRequestFrame(const Frame& frame, ServeRequest* request,
                             std::string* detail) {
  detail->clear();
  if (!IsKnownFrameType(frame.type) ||
      static_cast<uint8_t>(frame.type) >= 64) {
    *detail =
        "unknown request type " + std::to_string(int{frame.type});
    return ServeError::kBadType;
  }
  request->type = frame.frame_type();
  request->rows = Matrix();
  request->text.clear();
  switch (request->type) {
    case FrameType::kPredictCsv: {
      std::string reason;
      if (!ParseCsvRows(frame.payload, &request->rows, &reason)) {
        *detail = reason;
        return ServeError::kMalformedBody;
      }
      return ServeError::kNone;
    }
    case FrameType::kPredictDense: {
      size_t pos = 0;
      uint32_t rows = 0, cols = 0;
      if (!ReadPodAt(frame.payload, &pos, &rows) ||
          !ReadPodAt(frame.payload, &pos, &cols)) {
        *detail = "dense block shorter than its 8-byte header";
        return ServeError::kMalformedBody;
      }
      if (rows == 0 || cols == 0) {
        *detail = "dense block declares an empty matrix";
        return ServeError::kMalformedBody;
      }
      const uint64_t cells = uint64_t{rows} * cols;
      if (cells * sizeof(double) != frame.payload.size() - pos) {
        *detail = "dense block declares " + std::to_string(rows) + "x" +
                  std::to_string(cols) + " but carries " +
                  std::to_string(frame.payload.size() - pos) +
                  " payload bytes";
        return ServeError::kMalformedBody;
      }
      request->rows.Resize(rows, cols);
      std::memcpy(request->rows.MutableRaw(), frame.payload.data() + pos,
                  cells * sizeof(double));
      return ServeError::kNone;
    }
    case FrameType::kSwap:
      if (frame.payload.empty()) {
        *detail = "swap frame carries no artifact path";
        return ServeError::kMalformedBody;
      }
      request->text = frame.payload;
      return ServeError::kNone;
    case FrameType::kStats:
    case FrameType::kPing:
      return ServeError::kNone;
    default:
      *detail = "frame type " + std::to_string(int{frame.type}) +
                " is a response, not a request";
      return ServeError::kBadType;
  }
}

ServeResponse ExecutePredictRows(const Predictor& predictor,
                                 const Matrix& rows, size_t shard_rows) {
  Result<std::vector<int>> predictions =
      predictor.PredictSharded(rows, shard_rows);
  if (!predictions.ok()) {
    const ServeError error =
        predictions.status().code() == StatusCode::kInvalidArgument
            ? ServeError::kSchemaMismatch
            : ServeError::kPredictFailed;
    return ServeResponse::Error(error, predictions.status().message());
  }
  ServeResponse response;
  response.type = FrameType::kPredictions;
  response.predictions.assign(predictions.value().begin(),
                              predictions.value().end());
  return response;
}

std::string ServeStatsJson(const ServeStats& stats) {
  char keys[256];
  std::snprintf(keys, sizeof(keys),
                "\"latency_batches\":%ld,\"latency_rows\":%ld,"
                "\"rows_per_second\":%.1f,\"p50_ms\":%.3f,"
                "\"p95_ms\":%.3f,\"p99_ms\":%.3f",
                stats.batches, stats.rows, stats.rows_per_second,
                stats.p50_ms, stats.p95_ms, stats.p99_ms);
  return keys;
}

// --- Blocking client --------------------------------------------------------

BlockingFrameClient::~BlockingFrameClient() { Close(); }

void BlockingFrameClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

Status BlockingFrameClient::Connect(const std::string& host, int port,
                                    double timeout_seconds) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  struct timeval timeout;
  timeout.tv_sec = static_cast<long>(timeout_seconds);
  timeout.tv_usec =
      static_cast<long>((timeout_seconds - timeout.tv_sec) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status status = Status::IoError("connect " + host + ":" +
                                    std::to_string(port) + ": " +
                                    std::strerror(errno));
    Close();
    return status;
  }
  return Status::OK();
}

Status BlockingFrameClient::SendBytes(const std::string& bytes) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status BlockingFrameClient::RecvFrame(Frame* frame) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  ServeError error = ServeError::kNone;
  std::string detail;
  char chunk[16384];
  for (;;) {
    switch (decoder_.Next(frame, &error, &detail)) {
      case FrameDecoder::Outcome::kFrame:
        return Status::OK();
      case FrameDecoder::Outcome::kBad:
        return Status::InvalidArgument(std::string(ServeErrorName(error)) +
                                       ": " + detail);
      case FrameDecoder::Outcome::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError(decoder_.HasPartialFrame()
                                 ? "connection closed mid-frame"
                                 : "connection closed");
    }
    decoder_.Feed(chunk, static_cast<size_t>(n));
  }
}

Status BlockingFrameClient::RoundTrip(const std::string& request_bytes,
                                      ServeResponse* response) {
  Status sent = SendBytes(request_bytes);
  if (!sent.ok()) return sent;
  Frame frame;
  Status received = RecvFrame(&frame);
  if (!received.ok()) return received;
  if (!DecodeResponseFrame(frame, response)) {
    return Status::InvalidArgument("peer sent an unparseable response frame");
  }
  return Status::OK();
}

}  // namespace autofp
