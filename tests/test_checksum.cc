#include "util/checksum.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace autofp {
namespace {

// The textbook one-byte-at-a-time CRC-32, the oracle the sliced loop must
// reproduce for every length and alignment.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& byte : bytes) byte = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Checksum, Crc32CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Checksum, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  for (uint32_t seed : {1u, 2u}) {
    const std::vector<unsigned char> bytes = RandomBytes(64 + 8, seed);
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t length = 0; length <= 64; ++length) {
        const unsigned char* data = bytes.data() + offset;
        ASSERT_EQ(Crc32(data, length), ReferenceCrc32(data, length))
            << "seed " << seed << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(Checksum, Crc32ChainsAcrossSplits) {
  const std::vector<unsigned char> bytes = RandomBytes(200, 3);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
    // A seeded call matches the reference seeded the same way.
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split, 0x12345678u),
              ReferenceCrc32(bytes.data() + split, bytes.size() - split,
                             0x12345678u));
  }
}

TEST(Checksum, Fnv1a64KnownValuesAndCombine) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  const uint64_t value = 0x0102030405060708ull;
  EXPECT_EQ(HashCombine(7, value), Fnv1a64(&value, sizeof(value), 7));
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

}  // namespace
}  // namespace autofp
