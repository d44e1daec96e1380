#ifndef AUTOFP_UTIL_FS_H_
#define AUTOFP_UTIL_FS_H_

/// File helpers shared by the run journal, the artifact writer/reader
/// and the distributed shared-dataset file. POSIX gives two separate
/// durability promises: fsync(fd) persists a file's *content*, but the
/// file's *existence* (its directory entry) lives in the parent
/// directory and needs its own fsync — a machine crash right after
/// creating a freshly fsync'd file can otherwise lose the file itself.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/status.h"

namespace autofp {

/// Directory component of `path` ("." when there is none).
inline std::string ParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsyncs the directory containing `path`, making the file's directory
/// entry (creation, rename) as durable as its fsync'd content.
inline Status FsyncParentDirectory(const std::string& path) {
  const std::string dir = ParentDirectory(path);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync of directory '" + dir +
                           "' failed: " + std::strerror(saved_errno));
  }
  return Status::OK();
}

/// Writes `bytes` to `path` atomically and durably: the content lands in
/// a temp file in the same directory, is fsync'd, then renamed over
/// `path`, and the parent directory is fsync'd. Readers never observe a
/// torn file — they see either the old content or the complete new one.
inline Status WriteFileAtomic(const std::string& path,
                              const std::string& bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create temp file '" + tmp +
                           "': " + std::strerror(errno));
  }
  const char* data = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      int saved_errno = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("short write to '" + tmp +
                             "': " + std::strerror(saved_errno));
    }
    data += written;
    remaining -= static_cast<size_t>(written);
  }
  if (::fsync(fd) != 0) {
    int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync of '" + tmp +
                           "' failed: " + std::strerror(saved_errno));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved_errno = errno;
    ::unlink(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path +
                           "': " + std::strerror(saved_errno));
  }
  return FsyncParentDirectory(path);
}

/// Reads all of `path` into `*bytes` (replacing its content): one buffer
/// sized from fstat, then read(2) until EOF, so a file that grows while
/// it is read (a journal being appended) comes back whole up to the EOF
/// the last read saw.
inline Status ReadFileBytes(const std::string& path, std::string* bytes) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  size_t capacity = 0;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    capacity = static_cast<size_t>(st.st_size);
  }
  bytes->clear();
  // One spare byte, so a file that did not grow ends on a 0-byte read
  // instead of a resize.
  bytes->resize(capacity + 1);
  size_t size = 0;
  for (;;) {
    if (size == bytes->size()) bytes->resize(bytes->size() * 2);
    ssize_t n = ::read(fd, bytes->data() + size, bytes->size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved_errno = errno;
      ::close(fd);
      bytes->clear();
      return Status::IoError("cannot read '" + path +
                             "': " + std::strerror(saved_errno));
    }
    if (n == 0) break;
    size += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes->resize(size);
  return Status::OK();
}

}  // namespace autofp

#endif  // AUTOFP_UTIL_FS_H_
