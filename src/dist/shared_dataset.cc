#include "dist/shared_dataset.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "core/run_journal.h"
#include "util/checksum.h"
#include "util/fs.h"

namespace autofp {
namespace {

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Bounds-checked cursor over the mapped bytes.
struct MapCursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  template <typename T>
  bool Read(T* value) {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(value, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  /// Bytes not yet read: every length the header declares is checked
  /// against this before anything is allocated or wrapped.
  size_t remaining() const { return size - pos; }
};

}  // namespace

Status WriteSharedDataset(const std::string& path, const Dataset& dataset) {
  std::string bytes;
  const uint64_t rows = dataset.features.rows();
  const uint64_t cols = dataset.features.cols();
  bytes.reserve(128 + dataset.name.size() + rows * cols * sizeof(double) +
                rows * sizeof(int32_t));
  AppendPod(&bytes, kSharedDatasetMagic);
  AppendPod(&bytes, kSharedDatasetVersion);
  AppendPod(&bytes, DatasetFingerprint(dataset));
  AppendPod(&bytes, static_cast<uint32_t>(dataset.num_classes));
  AppendPod(&bytes, rows);
  AppendPod(&bytes, cols);
  AppendPod(&bytes, static_cast<uint32_t>(dataset.name.size()));
  bytes.append(dataset.name);
  // Pad so the feature block sits at a 64-byte file offset (the reader
  // maps it in place; see the header layout doc). Derivable from the
  // header, so nothing extra is stored.
  bytes.append((kSharedDatasetAlign - bytes.size() % kSharedDatasetAlign) %
                   kSharedDatasetAlign,
               '\0');
  bytes.append(reinterpret_cast<const char*>(dataset.features.Raw()),
               static_cast<size_t>(rows * cols) * sizeof(double));
  for (int label : dataset.labels) {
    AppendPod(&bytes, static_cast<int32_t>(label));
  }
  AppendPod(&bytes, Crc32(bytes.data(), bytes.size()));
  return WriteFileAtomic(path, bytes);
}

Result<Dataset> MapSharedDataset(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open shared dataset '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int saved_errno = errno;
    ::close(fd);
    return Status::IoError("cannot stat shared dataset '" + path +
                           "': " + std::strerror(saved_errno));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < 40 + sizeof(uint32_t)) {
    ::close(fd);
    return Status::InvalidArgument("shared dataset '" + path +
                                   "' is too short to be valid");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference.
  if (mapped == MAP_FAILED) {
    return Status::IoError("cannot mmap shared dataset '" + path +
                           "': " + std::strerror(errno));
  }
  // The mapping's owner from here on: released when the last reference
  // (an error path below, or the returned feature matrix's backing)
  // goes away.
  std::shared_ptr<const void> backing(
      mapped, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  const char* data = static_cast<const char*>(mapped);

  auto fail = [&](const std::string& message) -> Result<Dataset> {
    return Status::InvalidArgument("shared dataset '" + path +
                                   "': " + message);
  };

  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + size - sizeof(uint32_t), sizeof(uint32_t));
  if (Crc32(data, size - sizeof(uint32_t)) != stored_crc) {
    return fail("checksum mismatch (corrupt or truncated)");
  }

  MapCursor cursor{data, size - sizeof(uint32_t)};
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  uint32_t num_classes = 0;
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint32_t name_len = 0;
  if (!cursor.Read(&magic) || magic != kSharedDatasetMagic) {
    return fail("bad magic (not a shared dataset file)");
  }
  if (!cursor.Read(&version) || version != kSharedDatasetVersion) {
    return fail("unsupported version");
  }
  if (!cursor.Read(&fingerprint) || !cursor.Read(&num_classes) ||
      !cursor.Read(&rows) || !cursor.Read(&cols) ||
      !cursor.Read(&name_len)) {
    return fail("truncated header");
  }
  if (cursor.remaining() < name_len) return fail("truncated name");
  Dataset dataset;
  dataset.name.assign(data + cursor.pos, name_len);
  cursor.pos += name_len;
  dataset.num_classes = static_cast<int>(num_classes);
  const uint64_t cells = rows * cols;
  if (cols != 0 && cells / cols != rows) return fail("shape overflow");
  // Skip the writer's alignment padding (all zeros by construction, not
  // re-checked: the CRC already covered it).
  const size_t pad = (kSharedDatasetAlign - cursor.pos % kSharedDatasetAlign) %
                     kSharedDatasetAlign;
  if (cursor.remaining() < pad) return fail("truncated padding");
  cursor.pos += pad;
  if (cells > cursor.remaining() / sizeof(double)) {
    return fail("truncated feature block");
  }
  // Zero-copy: the feature matrix is a read-only view straight into the
  // mapping, whose lifetime the backing now carries. The 64-byte file
  // alignment plus the page-aligned mapping make the block cache-line
  // aligned in memory.
  const auto* features =
      reinterpret_cast<const double*>(data + cursor.pos);
  cursor.pos += static_cast<size_t>(cells) * sizeof(double);
  if (rows > cursor.remaining() / sizeof(int32_t)) {
    return fail("truncated label block");
  }
  dataset.features = Matrix::WrapConstRowMajor(
      features, static_cast<size_t>(rows), static_cast<size_t>(cols), backing);
  dataset.labels.resize(static_cast<size_t>(rows));
  for (int& label : dataset.labels) {
    int32_t stored = 0;
    cursor.Read(&stored);
    label = stored;
  }
  if (cursor.pos != cursor.size) return fail("trailing bytes");

  // Belt and braces: the fingerprint the writer computed must match what
  // this process computes over the materialized dataset — it is what the
  // worker reports at HELLO, so it must be derived, not trusted.
  if (DatasetFingerprint(dataset) != fingerprint) {
    return Status::InvalidArgument("shared dataset '" + path +
                                   "': fingerprint mismatch after load");
  }
  return dataset;
}

}  // namespace autofp
