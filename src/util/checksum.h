#ifndef AUTOFP_UTIL_CHECKSUM_H_
#define AUTOFP_UTIL_CHECKSUM_H_

/// Byte checksums and hashes shared by every on-disk and on-wire format:
/// the run journal, artifacts, the serve frame protocol, the distributed
/// wire and the shared-dataset file. All are seeded so calls chain.

#include <cstddef>
#include <cstdint>

namespace autofp {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size`
/// bytes, seeded with `crc` so calls can be chained:
/// Crc32(b, nb, Crc32(a, na)) == Crc32 of a followed by b.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

/// FNV-1a 64-bit over raw bytes, seeded so hashes combine/chain.
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t hash = 0xcbf29ce484222325ull);
/// Folds `value` into hash `h` (order-sensitive).
uint64_t HashCombine(uint64_t h, uint64_t value);

}  // namespace autofp

#endif  // AUTOFP_UTIL_CHECKSUM_H_
