#ifndef AUTOFP_SERVE_PROTOCOL_H_
#define AUTOFP_SERVE_PROTOCOL_H_

/// The serving wire protocol (see DESIGN.md "Network serving") — one typed
/// request/response surface shared by the socket front end
/// (serve/server.h) and the load-generator client. A stream is
/// a sequence of length-prefixed binary frames:
///
///   u32 magic "AFPN" | u8 type | u32 payload_len | payload
///     | u32 crc32(type, payload_len, payload)
///
/// (host-endian, like the artifact format: the protocol serves
/// machine-local deployments, not interchange). Predict payloads carry
/// either UTF-8 CSV rows or packed-float row blocks; admin frames carry
/// SWAP/STATS/PING. Every way a frame can be malformed is a typed
/// ServeError, never UB or a desynced silent misread: errors that poison
/// the framing itself (bad magic, oversized length, bad CRC, truncation)
/// are connection-fatal, while a well-framed but unparseable body gets an
/// error response and the connection keeps going.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/predictor.h"
#include "util/matrix.h"
#include "util/status.h"

namespace autofp {

/// First four bytes of every frame.
inline constexpr uint32_t kFrameMagic = 0x4E504641;  // "AFPN" little-endian.

/// Upper bound on one frame's payload. A declared length beyond it is
/// corruption or abuse — reading it would only manufacture a giant
/// allocation (same policy as util/serialize.h).
inline constexpr uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

/// Frame types. Requests are < 64, responses >= 64; unknown values are a
/// typed kBadType error, not a desync (the frame length is still trusted
/// once magic and CRC check out).
enum class FrameType : uint8_t {
  // Requests.
  kPredictCsv = 1,    ///< payload: UTF-8 CSV rows, one row per '\n' line.
  kPredictDense = 2,  ///< payload: u32 rows | u32 cols | rows*cols f64.
  kSwap = 3,          ///< admin: payload = artifact path to hot-swap in.
  kStats = 4,         ///< admin: empty payload; answers kStatsReport.
  kPing = 5,          ///< empty payload; answers kPong.
  // Responses.
  kPredictions = 64,  ///< payload: u32 count | count * i32 class ids.
  kError = 65,        ///< payload: u16 ServeError code | detail text.
  kSwapped = 66,      ///< payload: human-readable swap summary.
  kStatsReport = 67,  ///< payload: one flat JSON stats object.
  kPong = 68,         ///< empty payload.
};

/// The serving error taxonomy — every failure the socket server or a
/// client can report. Wire code values are fixed:
/// they travel inside kError frames.
enum class ServeError : uint16_t {
  kNone = 0,
  /// The stream does not start a frame with kFrameMagic (desync).
  kBadMagic = 1,
  /// A frame declares a payload larger than kMaxFramePayload (desync).
  kFrameTooLarge = 2,
  /// A frame's CRC does not match its content (desync).
  kBadCrc = 3,
  /// The peer closed the connection mid-frame.
  kTruncated = 4,
  /// A well-framed frame carries an unknown type byte.
  kBadType = 5,
  /// A well-framed payload does not parse (bad CSV cell, short dense
  /// block, ragged rows, empty predict).
  kMalformedBody = 6,
  /// Parsed rows do not match the artifact schema's column count.
  kSchemaMismatch = 7,
  /// The predictor rejected the batch for a non-schema reason.
  kPredictFailed = 8,
  /// Admission control shed the request: the server's pending-row queue
  /// is past its bound. Back off and retry.
  kBusy = 9,
  /// No artifact is loaded, or a SWAP could not load its artifact.
  kUnavailable = 10,
};

/// Human-readable name ("BadCrc" etc.; "OK" for kNone).
const char* ServeErrorName(ServeError error);

/// True for errors that poison the framing itself: after one of these the
/// byte stream cannot be trusted and the connection must close (after a
/// best-effort error response).
bool IsConnectionFatal(ServeError error);

/// One decoded frame: the raw type byte (kept raw so unknown types stay
/// representable) and its payload bytes.
struct Frame {
  uint8_t type = 0;
  std::string payload;

  FrameType frame_type() const { return static_cast<FrameType>(type); }
};

/// A parsed request, the unit the socket server executes.
struct ServeRequest {
  FrameType type = FrameType::kPing;
  Matrix rows;       ///< predict requests: one sample per row.
  std::string text;  ///< kSwap: artifact path.
};

/// A typed answer: either predictions, an error, or admin payloads.
/// Exactly one frame encodes it (EncodeResponse); `type` names which.
struct ServeResponse {
  FrameType type = FrameType::kPong;
  ServeError error = ServeError::kNone;  ///< kNone unless type == kError.
  std::vector<int32_t> predictions;  ///< kPredictions payload.
  std::string message;  ///< error detail / swap summary / stats JSON.

  bool ok() const { return error == ServeError::kNone; }

  static ServeResponse Error(ServeError error, std::string detail) {
    ServeResponse response;
    response.type = FrameType::kError;
    response.error = error;
    response.message = std::move(detail);
    return response;
  }
};

// --- Frame encoding (client and server sides) ------------------------------

/// Appends one complete frame (magic/type/len/payload/crc) to `*out`.
void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out);

/// Request encoders (the client surface).
void EncodePredictCsv(const std::string& csv_rows, std::string* out);
void EncodePredictDense(const Matrix& rows, std::string* out);
void EncodeSwap(const std::string& artifact_path, std::string* out);
void EncodeStats(std::string* out);
void EncodePing(std::string* out);

/// Encodes `response` as its response frame (kPredictions, kError,
/// kSwapped, kStatsReport or kPong, picked from the response content).
void EncodeResponse(const ServeResponse& response, std::string* out);

/// Decodes a response frame back into a ServeResponse (the client side of
/// EncodeResponse). Returns false if the frame is not a well-formed
/// response frame.
bool DecodeResponseFrame(const Frame& frame, ServeResponse* response);

// --- Incremental frame decoding --------------------------------------------

/// Reassembles frames from an arbitrarily chunked byte stream (reads may
/// split a frame at any offset). Feed() bytes as they arrive, then call
/// Next() until it stops returning kFrame. After kBad the stream is
/// desynced and the decoder refuses further progress.
class FrameDecoder {
 public:
  enum class Outcome {
    kFrame,     ///< *frame was filled with one complete frame.
    kNeedMore,  ///< the buffered bytes end mid-frame; Feed() more.
    kBad,       ///< framing error; *error / *detail say which.
  };

  void Feed(const char* data, size_t size);

  Outcome Next(Frame* frame, ServeError* error, std::string* detail);

  /// True when buffered bytes end mid-frame — a peer that closes now
  /// truncated a frame.
  bool HasPartialFrame() const { return pos_ < buffer_.size() && !bad_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;   ///< consumed prefix of buffer_.
  bool bad_ = false;
};

// --- Payload parsing and execution (server and `score` surface) -------------

/// Parses newline-delimited CSV rows into a matrix. All rows must agree on
/// width; blank lines are skipped. Returns false with a reason on any bad
/// cell, ragged width, or zero data rows.
bool ParseCsvRows(const std::string& text, Matrix* rows, std::string* reason);

/// Fits parsed rows to an artifact schema: rows may carry one trailing
/// extra column (the training label convention of `autofp --apply` dumps),
/// which is dropped. Returns false with a reason when the width cannot be
/// made to match.
bool FitRowsToSchema(Matrix* rows, uint64_t input_cols, std::string* reason);

/// Parses a well-framed request frame into a typed ServeRequest. Returns
/// kNone on success; kBadType / kMalformedBody (with detail) otherwise.
/// Never desyncs: the caller keeps the connection either way.
ServeError ParseRequestFrame(const Frame& frame, ServeRequest* request,
                             std::string* detail);

/// Scores rows through `predictor` and maps failures into the taxonomy
/// (schema guard -> kSchemaMismatch, anything else -> kPredictFailed).
ServeResponse ExecutePredictRows(const Predictor& predictor,
                                 const Matrix& rows, size_t shard_rows);

/// The predictor's latency counters as flat JSON keys without braces
/// ("latency_batches", "latency_rows", "rows_per_second", "p50_ms",
/// "p95_ms", "p99_ms"): the latency part of a stats snapshot.
/// "rows_per_second" is rows over summed scoring time, that is, scoring
/// capacity, not the served rate: a server's snapshot also carries
/// "uptime_s", and its served rate is predict_rows / uptime_s (between
/// two snapshots, the ratio of their differences).
std::string ServeStatsJson(const ServeStats& stats);

// --- Blocking client --------------------------------------------------------

/// A minimal blocking-socket frame client: the transport under the load
/// generator, the tests, and the end-to-end benchmark. Not thread-safe; use
/// one per connection.
class BlockingFrameClient {
 public:
  BlockingFrameClient() = default;
  ~BlockingFrameClient();
  BlockingFrameClient(const BlockingFrameClient&) = delete;
  BlockingFrameClient& operator=(const BlockingFrameClient&) = delete;

  /// Connects to host:port with TCP_NODELAY; `timeout_seconds` bounds
  /// every subsequent send/receive.
  Status Connect(const std::string& host, int port,
                 double timeout_seconds = 10.0);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Writes pre-encoded frame bytes (EncodeFrame/Encode* output).
  Status SendBytes(const std::string& bytes);

  /// Reads until one complete frame arrives.
  Status RecvFrame(Frame* frame);

  /// SendBytes + RecvFrame + DecodeResponseFrame in one round trip.
  Status RoundTrip(const std::string& request_bytes, ServeResponse* response);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace autofp

#endif  // AUTOFP_SERVE_PROTOCOL_H_
