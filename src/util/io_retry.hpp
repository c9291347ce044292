// Retrying POSIX write primitives for the durability subsystem (PR 7).
//
// Every durable write funnels its syscalls through these helpers — the
// tmp-then-rename writes of all five on-disk formats via
// util/framed_file.hpp's writeDurably, and the ingest journal's in-place
// appends and fsyncs — which give three properties in one place:
//
//   - transient failures (EINTR, EAGAIN, short writes) are retried with
//     bounded exponential backoff instead of surfacing as hard errors;
//   - permanent failures throw a typed IoError carrying the errno, so the
//     service can tell "disk full — degrade to serve-stale" (diskFull())
//     from "refuse and report";
//   - every syscall site is a named fail point, so the crash matrix can
//     kill or errno-inject at exactly this write / fsync / rename.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/failpoint.hpp"

namespace lfpr::io {

class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, int err)
      : std::runtime_error(what), errno_(err) {}

  [[nodiscard]] int errnoValue() const noexcept { return errno_; }

  /// ENOSPC (and its quota sibling) — the one transient-looking failure
  /// retrying cannot fix; callers degrade instead.
  [[nodiscard]] bool diskFull() const noexcept {
    return errno_ == ENOSPC || errno_ == EDQUOT;
  }

 private:
  int errno_;
};

/// Retry budget for transient failures. 8 attempts with doubling backoff
/// from 50us caps the worst-case stall near 13ms — long enough to ride
/// out signal storms and scheduler hiccups, short enough that the ingest
/// thread's staleness stays bounded.
inline constexpr int kMaxIoRetries = 8;

inline void backoff(int attempt) {
  const auto factor = std::uint64_t{1} << std::min(attempt, kMaxIoRetries);
  std::this_thread::sleep_for(std::chrono::microseconds(50 * factor));
}

inline bool transientErrno(int err) noexcept {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

/// write(2) until `len` bytes are down, retrying transient errnos and
/// continuing across short writes. `point` names the fail-point site.
inline void writeFully(int fd, const void* data, std::size_t len,
                       const std::string& what, const char* point) {
  const char* p = static_cast<const char*>(data);
  int attempt = 0;
  while (len > 0) {
    LFPR_FAILPOINT(point);  // kill-mode crash site: prefix may be on disk
    std::size_t want = len;
    ::ssize_t n;
    if (const int injected = LFPR_FAILPOINT_ERRNO(point); injected != 0) {
      if (injected == kFailPointShortWrite) {
        want = len > 1 ? len / 2 : 1;  // forced short write, real bytes
        n = ::write(fd, p, want);
      } else {
        n = -1;
        errno = injected;
      }
    } else {
      n = ::write(fd, p, want);
    }
    if (n < 0) {
      const int err = errno;
      if (transientErrno(err) && attempt < kMaxIoRetries) {
        backoff(attempt++);
        continue;
      }
      throw IoError(what + ": write failed: " + std::strerror(err), err);
    }
    if (n == 0) {
      if (attempt >= kMaxIoRetries)
        throw IoError(what + ": write made no progress", EIO);
      backoff(attempt++);
      continue;
    }
    attempt = 0;  // progress resets the transient budget
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// pwrite(2) a full buffer at `offset` (header backpatch sites).
inline void pwriteFully(int fd, const void* data, std::size_t len,
                        off_t offset, const std::string& what,
                        const char* point) {
  const char* p = static_cast<const char*>(data);
  int attempt = 0;
  while (len > 0) {
    LFPR_FAILPOINT(point);
    ::ssize_t n;
    if (const int injected = LFPR_FAILPOINT_ERRNO(point); injected != 0) {
      n = -1;
      errno = injected == kFailPointShortWrite ? EAGAIN : injected;
    } else {
      n = ::pwrite(fd, p, len, offset);
    }
    if (n < 0) {
      const int err = errno;
      if (transientErrno(err) && attempt < kMaxIoRetries) {
        backoff(attempt++);
        continue;
      }
      throw IoError(what + ": pwrite failed: " + std::strerror(err), err);
    }
    if (n == 0) {
      if (attempt >= kMaxIoRetries)
        throw IoError(what + ": pwrite made no progress", EIO);
      backoff(attempt++);
      continue;
    }
    attempt = 0;
    p += n;
    offset += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// fsync(2) with EINTR retry.
inline void fsyncRetry(int fd, const std::string& what, const char* point) {
  int attempt = 0;
  for (;;) {
    LFPR_FAILPOINT(point);
    int rc;
    if (const int injected = LFPR_FAILPOINT_ERRNO(point); injected != 0) {
      rc = -1;
      errno = injected == kFailPointShortWrite ? EINTR : injected;
    } else {
      rc = ::fsync(fd);
    }
    if (rc == 0) return;
    const int err = errno;
    if (transientErrno(err) && attempt < kMaxIoRetries) {
      backoff(attempt++);
      continue;
    }
    throw IoError(what + ": fsync failed: " + std::strerror(err), err);
  }
}

/// rename(2) `from` over `to` (the atomic-publish step of tmp-then-rename).
inline void renameFile(const std::string& from, const std::string& to,
                       const std::string& what, const char* point) {
  LFPR_FAILPOINT(point);
  int rc;
  if (const int injected = LFPR_FAILPOINT_ERRNO(point); injected != 0) {
    rc = -1;
    errno = injected == kFailPointShortWrite ? EINTR : injected;
  } else {
    rc = ::rename(from.c_str(), to.c_str());
  }
  if (rc != 0) {
    const int err = errno;
    throw IoError(what + ": rename '" + from + "' -> '" + to +
                      "' failed: " + std::strerror(err),
                  err);
  }
}

/// Best-effort directory fsync after a rename: makes the new name itself
/// durable. Failure is swallowed — the data file's own fsync already
/// bounds the loss to "the rename", which recovery tolerates (the old
/// checkpoint pair / shorter journal is still valid).
inline void fsyncDirectory(const std::string& dir) noexcept {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Write-only RAII fd for the tmp half of tmp-then-rename writers.
class FdFile {
 public:
  FdFile() = default;

  static FdFile create(const std::string& path, const std::string& what,
                       const char* point) {
    LFPR_FAILPOINT(point);
    int fd;
    if (const int injected = LFPR_FAILPOINT_ERRNO(point); injected != 0) {
      fd = -1;
      errno = injected == kFailPointShortWrite ? EINTR : injected;
    } else {
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
    }
    if (fd < 0) {
      const int err = errno;
      throw IoError(what + ": cannot open '" + path +
                        "' for writing: " + std::strerror(err),
                    err);
    }
    FdFile f;
    f.fd_ = fd;
    f.what_ = what;
    return f;
  }

  FdFile(FdFile&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), what_(std::move(other.what_)) {}
  FdFile(const FdFile&) = delete;
  FdFile& operator=(const FdFile&) = delete;
  ~FdFile() { closeNoThrow(); }

  void write(const void* data, std::size_t len, const char* point) {
    writeFully(fd_, data, len, what_, point);
  }

  void pwriteAt(const void* data, std::size_t len, off_t offset,
                const char* point) {
    pwriteFully(fd_, data, len, offset, what_, point);
  }

  void sync(const char* point) { fsyncRetry(fd_, what_, point); }

  /// Close, surfacing failure (deferred write errors land here on some
  /// filesystems). The fd is released either way.
  void close() {
    if (fd_ < 0) return;
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0) {
      const int err = errno;
      throw IoError(what_ + ": close failed: " + std::strerror(err), err);
    }
  }

 private:
  void closeNoThrow() noexcept {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }

  int fd_ = -1;
  std::string what_;
};

}  // namespace lfpr::io
