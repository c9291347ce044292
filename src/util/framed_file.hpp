// Framing shared by the five binary on-disk formats: the CSR snapshot
// (graph/csr_file), the temporal edge log (graph/edge_log), the ingest
// journal (service/ingest_journal), and the checkpoint meta and walk
// sidecar (service/checkpoint). Every format is a fixed-layout header
// and a payload; every header begins with the same 16 bytes {char
// magic[8], u32 version, u32 headerBytes}. The rest of each header and
// its payload layout belong to the format. Syscall failures are
// io::IoError, never a FileFormatError: a full disk is not a malformed
// file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/io_retry.hpp"

namespace lfpr {

/// The one rejection type of every loader. what() reads
/// "<path>: <field>: <detail>".
class FileFormatError : public std::runtime_error {
 public:
  FileFormatError(const std::string& path, const std::string& field,
                  const std::string& detail);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string path_;
  std::string field_;
};

/// Fail-point names of one writer's open, fsync and rename sites
/// (util/failpoint.hpp); the body names its own write sites.
struct DurablePoints {
  const char* open;
  const char* fsync;
  const char* rename;
};

/// Publish `path` atomically: `body` writes the content into
/// "<path>.tmp.<pid>", which is then fsynced, closed, renamed over
/// `path`, and the directory fsynced. The process-unique scratch name
/// keeps concurrent writers of one path from interleaving. On any
/// failure the scratch is unlinked and the error rethrown, except
/// FailPointAbort: a simulated crash leaves the scratch for the recovery
/// sweep, as a real one would.
void writeDurably(const std::string& path, const DurablePoints& points,
                  const std::function<void(io::FdFile&)>& body);

/// A zeroed header H with its magic, version and headerBytes filled in.
template <typename H>
[[nodiscard]] H initHeader(const char (&magic)[8], std::uint32_t version) {
  H h{};
  std::memcpy(h.magic, magic, sizeof(h.magic));
  h.version = version;
  h.headerBytes = sizeof(H);
  return h;
}

/// Throws FileFormatError unless `bytes` holds a `headerBytes`-byte
/// header whose prefix carries `magic`, `version` and `headerBytes`.
void checkPrefix(std::span<const std::byte> bytes, std::size_t headerBytes,
                 const char (&magic)[8], std::uint32_t version,
                 const std::string& path);

/// The header H at the start of `bytes`, after checkPrefix.
template <typename H>
[[nodiscard]] H readHeader(std::span<const std::byte> bytes, const char (&magic)[8],
                           std::uint32_t version, const std::string& path) {
  static_assert(std::is_trivially_copyable_v<H>);
  checkPrefix(bytes, sizeof(H), magic, version, path);
  H h;
  std::memcpy(&h, bytes.data(), sizeof(H));
  return h;
}

/// Sequential reader over a payload whose lengths come from the file:
/// every take checks that count * sizeof(T) neither overflows nor
/// exceeds the bytes that remain, or throws FileFormatError naming the
/// field that supplied the count.
class BoundedReader {
 public:
  BoundedReader(std::span<const std::byte> bytes, std::string path)
      : bytes_(bytes), path_(std::move(path)) {}

  /// The next count * sizeof(T) bytes.
  template <typename T>
  std::span<const std::byte> take(std::uint64_t count, const char* field) {
    return takeBytes(count, sizeof(T), field);
  }

  /// The next `count` Ts in place, zero-copy. The format's layout must
  /// keep this position aligned for T.
  template <typename T>
  std::span<const T> view(std::uint64_t count, const char* field) {
    return {reinterpret_cast<const T*>(take<T>(count, field).data()),
            static_cast<std::size_t>(count)};
  }

  template <typename T>
  [[nodiscard]] T readOne(const char* field) {
    T v{};
    std::memcpy(&v, take<T>(1, field).data(), sizeof(T));
    return v;
  }

  /// Replace `out` with the next `count` Ts in one copy: the aligned
  /// path inserts straight from the payload, skipping the zero-fill a
  /// resize-then-copy would pay on multi-megabyte arrays.
  template <typename T>
  void readVector(std::vector<T>& out, std::uint64_t count, const char* field) {
    const auto b = take<T>(count, field);
    out.clear();
    if (reinterpret_cast<std::uintptr_t>(b.data()) % alignof(T) == 0) {
      const T* first = reinterpret_cast<const T*>(b.data());
      out.insert(out.end(), first, first + count);
    } else {
      out.resize(static_cast<std::size_t>(count));
      std::memcpy(out.data(), b.data(), b.size());
    }
  }

  /// Throws unless every byte was taken.
  void expectEnd(const char* field) const;

 private:
  std::span<const std::byte> takeBytes(std::uint64_t count, std::size_t elementBytes,
                                       const char* field);

  std::span<const std::byte> bytes_;
  std::string path_;
  std::size_t pos_ = 0;
};

}  // namespace lfpr
