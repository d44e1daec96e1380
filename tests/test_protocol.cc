/// Tests of the serving wire protocol (src/serve/protocol.h): frame
/// round trips, the incremental decoder under arbitrary read chunking,
/// and — the load-bearing property — the malformed-frame taxonomy: no
/// byte stream, however mangled, may crash the decoder, desync it
/// silently, or escape without a typed ServeError.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace autofp {
namespace {

/// Runs the decoder over `bytes` fed in `chunk`-sized pieces, collecting
/// every decoded frame; returns the terminal outcome (kNeedMore if the
/// stream ended cleanly between frames).
FrameDecoder::Outcome DecodeAll(const std::string& bytes, size_t chunk,
                                std::vector<Frame>* frames,
                                ServeError* error) {
  FrameDecoder decoder;
  std::string detail;
  *error = ServeError::kNone;
  FrameDecoder::Outcome last = FrameDecoder::Outcome::kNeedMore;
  for (size_t at = 0; at < bytes.size(); at += chunk) {
    decoder.Feed(bytes.data() + at, std::min(chunk, bytes.size() - at));
    for (;;) {
      Frame frame;
      last = decoder.Next(&frame, error, &detail);
      if (last != FrameDecoder::Outcome::kFrame) break;
      frames->push_back(frame);
    }
    if (last == FrameDecoder::Outcome::kBad) return last;
  }
  return last;
}

TEST(Protocol, DenseRequestRoundTrip) {
  Matrix rows{{1.0, 2.5, -3.0}, {4.0, 5.0, 6.0}};
  std::string bytes;
  EncodePredictDense(rows, &bytes);

  std::vector<Frame> frames;
  ServeError error;
  DecodeAll(bytes, bytes.size(), &frames, &error);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frame_type(), FrameType::kPredictDense);

  ServeRequest request;
  std::string detail;
  ASSERT_EQ(ParseRequestFrame(frames[0], &request, &detail), ServeError::kNone)
      << detail;
  EXPECT_EQ(request.type, FrameType::kPredictDense);
  EXPECT_EQ(request.rows, rows);
}

TEST(Protocol, CsvRequestRoundTrip) {
  std::string bytes;
  EncodePredictCsv("1.0, 2.0\n3.5,4.5\n", &bytes);
  std::vector<Frame> frames;
  ServeError error;
  DecodeAll(bytes, bytes.size(), &frames, &error);
  ASSERT_EQ(frames.size(), 1u);

  ServeRequest request;
  std::string detail;
  ASSERT_EQ(ParseRequestFrame(frames[0], &request, &detail), ServeError::kNone)
      << detail;
  Matrix want{{1.0, 2.0}, {3.5, 4.5}};
  EXPECT_EQ(request.rows, want);
}

TEST(Protocol, AdminRequestRoundTrips) {
  std::string bytes;
  EncodeSwap("/tmp/some.afpa", &bytes);
  EncodeStats(&bytes);
  EncodePing(&bytes);
  std::vector<Frame> frames;
  ServeError error;
  DecodeAll(bytes, bytes.size(), &frames, &error);
  ASSERT_EQ(frames.size(), 3u);

  ServeRequest request;
  std::string detail;
  ASSERT_EQ(ParseRequestFrame(frames[0], &request, &detail), ServeError::kNone);
  EXPECT_EQ(request.type, FrameType::kSwap);
  EXPECT_EQ(request.text, "/tmp/some.afpa");
  ASSERT_EQ(ParseRequestFrame(frames[1], &request, &detail), ServeError::kNone);
  EXPECT_EQ(request.type, FrameType::kStats);
  ASSERT_EQ(ParseRequestFrame(frames[2], &request, &detail), ServeError::kNone);
  EXPECT_EQ(request.type, FrameType::kPing);
}

TEST(Protocol, ResponseRoundTrips) {
  // Predictions.
  ServeResponse predictions;
  predictions.type = FrameType::kPredictions;
  predictions.predictions = {0, 1, 2, 1};
  // Error with a detail string.
  ServeResponse error_response =
      ServeResponse::Error(ServeError::kBusy, "queue full");
  // Swap summary, stats report, pong.
  ServeResponse swapped;
  swapped.type = FrameType::kSwapped;
  swapped.message = "swapped generation=2";
  ServeResponse stats;
  stats.type = FrameType::kStatsReport;
  stats.message = "{\"latency_rows\":12}";
  ServeResponse pong;

  std::string bytes;
  for (const ServeResponse* response :
       {&predictions, &error_response, &swapped, &stats, &pong}) {
    EncodeResponse(*response, &bytes);
  }
  std::vector<Frame> frames;
  ServeError error;
  DecodeAll(bytes, bytes.size(), &frames, &error);
  ASSERT_EQ(frames.size(), 5u);

  ServeResponse decoded;
  ASSERT_TRUE(DecodeResponseFrame(frames[0], &decoded));
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.predictions, predictions.predictions);
  ASSERT_TRUE(DecodeResponseFrame(frames[1], &decoded));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, ServeError::kBusy);
  EXPECT_EQ(decoded.message, "queue full");
  ASSERT_TRUE(DecodeResponseFrame(frames[2], &decoded));
  EXPECT_EQ(decoded.type, FrameType::kSwapped);
  EXPECT_EQ(decoded.message, swapped.message);
  ASSERT_TRUE(DecodeResponseFrame(frames[3], &decoded));
  EXPECT_EQ(decoded.type, FrameType::kStatsReport);
  ASSERT_TRUE(DecodeResponseFrame(frames[4], &decoded));
  EXPECT_EQ(decoded.type, FrameType::kPong);
  EXPECT_TRUE(decoded.ok());
}

TEST(Protocol, ByteAtATimeFeedReassemblesFrames) {
  // Reads may split a frame anywhere; one byte at a time is the extreme.
  Matrix rows{{7.0, 8.0}};
  std::string bytes;
  EncodePredictDense(rows, &bytes);
  EncodePing(&bytes);
  std::vector<Frame> frames;
  ServeError error;
  EXPECT_EQ(DecodeAll(bytes, 1, &frames, &error),
            FrameDecoder::Outcome::kNeedMore);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].frame_type(), FrameType::kPredictDense);
  EXPECT_EQ(frames[1].frame_type(), FrameType::kPing);
}

TEST(Protocol, EveryChunkSizeAgrees) {
  std::string bytes;
  EncodePredictCsv("1,2,3\n", &bytes);
  EncodeSwap("x", &bytes);
  EncodeStats(&bytes);
  for (size_t chunk = 1; chunk <= bytes.size(); ++chunk) {
    std::vector<Frame> frames;
    ServeError error;
    DecodeAll(bytes, chunk, &frames, &error);
    ASSERT_EQ(frames.size(), 3u) << "chunk " << chunk;
  }
}

TEST(Protocol, TruncatedFrameIsDetectable) {
  std::string bytes;
  EncodePredictCsv("1,2\n", &bytes);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size() - 3);  // drop the CRC tail
  Frame frame;
  ServeError error;
  std::string detail;
  EXPECT_EQ(decoder.Next(&frame, &error, &detail),
            FrameDecoder::Outcome::kNeedMore);
  // The peer closing now would truncate mid-frame.
  EXPECT_TRUE(decoder.HasPartialFrame());
}

TEST(Protocol, BadMagicIsConnectionFatal) {
  std::string bytes;
  EncodePing(&bytes);
  bytes[0] ^= 0x5A;
  std::vector<Frame> frames;
  ServeError error;
  EXPECT_EQ(DecodeAll(bytes, bytes.size(), &frames, &error),
            FrameDecoder::Outcome::kBad);
  EXPECT_EQ(error, ServeError::kBadMagic);
  EXPECT_TRUE(IsConnectionFatal(error));
  EXPECT_TRUE(frames.empty());
}

TEST(Protocol, OversizedLengthIsConnectionFatal) {
  // Hand-craft a header that declares a payload past the frame bound.
  std::string bytes;
  bytes.append(reinterpret_cast<const char*>(&kFrameMagic), 4);
  bytes.push_back(static_cast<char>(FrameType::kPredictCsv));
  const uint32_t huge = kMaxFramePayload + 1;
  bytes.append(reinterpret_cast<const char*>(&huge), 4);
  std::vector<Frame> frames;
  ServeError error;
  EXPECT_EQ(DecodeAll(bytes, bytes.size(), &frames, &error),
            FrameDecoder::Outcome::kBad);
  EXPECT_EQ(error, ServeError::kFrameTooLarge);
  EXPECT_TRUE(IsConnectionFatal(error));
}

TEST(Protocol, CorruptedPayloadFailsCrc) {
  std::string bytes;
  EncodePredictCsv("1,2,3\n", &bytes);
  bytes[11] ^= 0x01;  // flip a payload byte; the CRC no longer matches
  std::vector<Frame> frames;
  ServeError error;
  EXPECT_EQ(DecodeAll(bytes, bytes.size(), &frames, &error),
            FrameDecoder::Outcome::kBad);
  EXPECT_EQ(error, ServeError::kBadCrc);
  EXPECT_TRUE(IsConnectionFatal(error));
}

TEST(Protocol, DecoderStaysBadAfterDesync) {
  std::string bytes;
  EncodePing(&bytes);
  bytes[0] ^= 1;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ServeError error;
  std::string detail;
  EXPECT_EQ(decoder.Next(&frame, &error, &detail),
            FrameDecoder::Outcome::kBad);
  // Feeding a pristine frame afterwards cannot resurrect the stream.
  std::string good;
  EncodePing(&good);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame, &error, &detail),
            FrameDecoder::Outcome::kBad);
}

TEST(Protocol, UnknownTypeIsWellFramedError) {
  // A correct frame with an unknown type byte decodes (length and CRC are
  // trusted) and fails request parsing with a non-fatal kBadType.
  std::string bytes;
  EncodeFrame(static_cast<FrameType>(42), "payload", &bytes);
  std::vector<Frame> frames;
  ServeError error;
  EXPECT_EQ(DecodeAll(bytes, bytes.size(), &frames, &error),
            FrameDecoder::Outcome::kNeedMore);
  ASSERT_EQ(frames.size(), 1u);
  ServeRequest request;
  std::string detail;
  EXPECT_EQ(ParseRequestFrame(frames[0], &request, &detail),
            ServeError::kBadType);
  EXPECT_FALSE(IsConnectionFatal(ServeError::kBadType));
}

TEST(Protocol, MalformedBodiesAreTypedNotFatal) {
  std::vector<std::string> payload_frames;
  // Dense header promises more rows than the payload holds.
  {
    std::string payload;
    const uint32_t rows = 100, cols = 100;
    payload.append(reinterpret_cast<const char*>(&rows), 4);
    payload.append(reinterpret_cast<const char*>(&cols), 4);
    payload.append(16, '\0');
    std::string bytes;
    EncodeFrame(FrameType::kPredictDense, payload, &bytes);
    payload_frames.push_back(bytes);
  }
  // CSV with a non-numeric cell, ragged widths, and no rows at all.
  for (const char* csv : {"1,banana\n", "1,2\n1,2,3\n", "\n \n"}) {
    std::string bytes;
    EncodePredictCsv(csv, &bytes);
    payload_frames.push_back(bytes);
  }
  // Empty swap path.
  {
    std::string bytes;
    EncodeSwap("", &bytes);
    payload_frames.push_back(bytes);
  }
  for (const std::string& bytes : payload_frames) {
    std::vector<Frame> frames;
    ServeError error;
    ASSERT_EQ(DecodeAll(bytes, bytes.size(), &frames, &error),
              FrameDecoder::Outcome::kNeedMore);
    ASSERT_EQ(frames.size(), 1u);
    ServeRequest request;
    std::string detail;
    const ServeError parse_error =
        ParseRequestFrame(frames[0], &request, &detail);
    EXPECT_EQ(parse_error, ServeError::kMalformedBody) << detail;
    EXPECT_FALSE(IsConnectionFatal(parse_error));
    EXPECT_FALSE(detail.empty());
  }
}

TEST(Protocol, GarbageFuzzNeverCrashes) {
  // Deterministic pseudo-random byte soup, fed at several chunk sizes: the
  // decoder must always land in a typed outcome, never crash or loop.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_byte = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<char>(state >> 33);
  };
  for (size_t trial = 0; trial < 50; ++trial) {
    std::string soup;
    for (size_t i = 0; i < 512; ++i) soup.push_back(next_byte());
    // Half the trials lead with valid magic so the header parse goes
    // deeper before the bytes go bad.
    if (trial % 2 == 0) {
      std::memcpy(soup.data(), &kFrameMagic, sizeof(kFrameMagic));
    }
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{512}}) {
      std::vector<Frame> frames;
      ServeError error;
      const FrameDecoder::Outcome outcome =
          DecodeAll(soup, chunk, &frames, &error);
      if (outcome == FrameDecoder::Outcome::kBad) {
        EXPECT_TRUE(IsConnectionFatal(error)) << ServeErrorName(error);
      }
    }
  }
}

TEST(Protocol, FitRowsToSchema) {
  std::string reason;
  Matrix exact{{1.0, 2.0}};
  EXPECT_TRUE(FitRowsToSchema(&exact, 2, &reason));
  EXPECT_EQ(exact.cols(), 2u);
  // One trailing extra column (the label convention) is dropped.
  Matrix labeled{{1.0, 2.0, 9.0}, {3.0, 4.0, 8.0}};
  EXPECT_TRUE(FitRowsToSchema(&labeled, 2, &reason));
  Matrix want{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(labeled, want);
  // Anything else is a mismatch.
  Matrix wide{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_FALSE(FitRowsToSchema(&wide, 2, &reason));
  EXPECT_FALSE(reason.empty());
  Matrix narrow{{1.0}};
  EXPECT_FALSE(FitRowsToSchema(&narrow, 2, &reason));
}

}  // namespace
}  // namespace autofp
