#ifndef AUTOFP_UTIL_SERIALIZE_H_
#define AUTOFP_UTIL_SERIALIZE_H_

/// Binary stream helpers for fitted-state blobs (Preprocessor::SaveState,
/// Classifier::SaveState and the artifact format in src/serve/). The
/// encoding is host-endian and field-by-field (never raw struct bytes, so
/// padding can't leak nondeterminism into artifacts). Readers return false
/// on exhaustion or implausible lengths instead of throwing; callers turn
/// that into a typed Status. A declared length is never trusted for
/// allocation: payloads are read in bounded chunks, so a corrupt length
/// over a short stream costs at most one chunk beyond the bytes present.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/matrix.h"

namespace autofp {

/// Upper bound on one serialized vector/string, far above any real fitted
/// state. A declared length beyond it is corruption (or a version bug),
/// not data — reading it would only manufacture a giant allocation.
inline constexpr uint64_t kMaxSerializedElements = 1ull << 28;

/// Largest allocation a reader makes ahead of bytes that have arrived.
inline constexpr size_t kReadChunkBytes = size_t{1} << 16;

template <typename T>
void WritePod(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.gcount() == static_cast<std::streamsize>(sizeof(T));
}

template <typename T, typename Alloc>
void WriteVec(std::ostream& out, const std::vector<T, Alloc>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(out, values.size());
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
}

/// Reads `count` elements of T into `*values` (a contiguous container),
/// growing it one chunk at a time as the bytes actually arrive.
template <typename T, typename Container>
bool ReadElements(std::istream& in, uint64_t count, Container* values) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr uint64_t kChunk = kReadChunkBytes / sizeof(T);
  values->clear();
  for (uint64_t done = 0; done < count;) {
    const uint64_t step = std::min(count - done, kChunk);
    values->resize(done + step);
    const std::streamsize bytes =
        static_cast<std::streamsize>(step * sizeof(T));
    in.read(reinterpret_cast<char*>(values->data() + done), bytes);
    if (in.gcount() != bytes) return false;
    done += step;
  }
  return true;
}

template <typename T, typename Alloc>
bool ReadVec(std::istream& in, std::vector<T, Alloc>* values) {
  uint64_t count = 0;
  if (!ReadPod(in, &count) || count > kMaxSerializedElements) return false;
  return ReadElements<T>(in, count, values);
}

inline void WriteString(std::ostream& out, const std::string& value) {
  WritePod<uint64_t>(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

inline bool ReadString(std::istream& in, std::string* value) {
  uint64_t size = 0;
  if (!ReadPod(in, &size) || size > kMaxSerializedElements) return false;
  return ReadElements<char>(in, size, value);
}

/// Matrices serialize as their shape followed by the row-major storage.
inline void WriteMatrix(std::ostream& out, const Matrix& matrix) {
  WritePod<uint64_t>(out, matrix.rows());
  WritePod<uint64_t>(out, matrix.cols());
  WritePod<uint64_t>(out, matrix.size());
  if (matrix.empty()) return;
  out.write(reinterpret_cast<const char*>(matrix.Raw()),
            static_cast<std::streamsize>(matrix.size() * sizeof(double)));
}

inline bool ReadMatrix(std::istream& in, Matrix* matrix) {
  uint64_t rows = 0, cols = 0, count = 0;
  if (!ReadPod(in, &rows) || !ReadPod(in, &cols) || !ReadPod(in, &count)) {
    return false;
  }
  if (count > kMaxSerializedElements || rows * cols != count ||
      (cols != 0 && rows > kMaxSerializedElements / cols)) {
    return false;
  }
  Matrix out_matrix;
  if (!ReadElements<double>(in, count, &out_matrix.data())) return false;
  out_matrix.Resize(rows, cols);  // storage already holds rows * cols.
  *matrix = std::move(out_matrix);
  return true;
}

}  // namespace autofp

#endif  // AUTOFP_UTIL_SERIALIZE_H_
