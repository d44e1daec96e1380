#include "util/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace autofp {
namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC contribution of byte b followed by k zero
// bytes, so eight table lookups fold one 8-byte word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = value;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    // Word loads go through memcpy: `bytes` has no alignment promise.
    for (; size >= 8; bytes += 8, size -= 8) {
      uint32_t low = 0, high = 0;
      std::memcpy(&low, bytes, sizeof(low));
      std::memcpy(&high, bytes + 4, sizeof(high));
      low ^= crc;
      crc = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
            kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
            kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
            kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
    }
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

uint64_t Fnv1a64(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t HashCombine(uint64_t h, uint64_t value) {
  return Fnv1a64(&value, sizeof(value), h);
}

}  // namespace autofp
