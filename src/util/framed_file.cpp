#include "util/framed_file.hpp"

#include <unistd.h>

#include <filesystem>
#include <limits>

namespace lfpr {

FileFormatError::FileFormatError(const std::string& path, const std::string& field,
                                 const std::string& detail)
    : std::runtime_error(path + ": " + field + ": " + detail), path_(path), field_(field) {}

void writeDurably(const std::string& path, const DurablePoints& points,
                  const std::function<void(io::FdFile&)>& body) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const std::string what = "'" + path + "'";
  try {
    io::FdFile out = io::FdFile::create(tmp, what, points.open);
    body(out);
    out.sync(points.fsync);
    out.close();
    io::renameFile(tmp, path, what, points.rename);
    io::fsyncDirectory(std::filesystem::path(path).parent_path().string());
  } catch (const FailPointAbort&) {
    throw;
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

void checkPrefix(std::span<const std::byte> bytes, std::size_t headerBytes,
                 const char (&magic)[8], std::uint32_t version,
                 const std::string& path) {
  struct {
    char magic[8];
    std::uint32_t version;
    std::uint32_t headerBytes;
  } p;
  static_assert(sizeof(p) == 16, "the prefix is part of every format");
  if (bytes.size() < headerBytes || headerBytes < sizeof(p))
    throw FileFormatError(path, "header",
                          "truncated: " + std::to_string(bytes.size()) +
                              " bytes is smaller than the " +
                              std::to_string(headerBytes) + "-byte header");
  std::memcpy(&p, bytes.data(), sizeof(p));
  if (std::memcmp(p.magic, magic, sizeof(p.magic)) != 0)
    throw FileFormatError(path, "magic",
                          "bad magic (expected '" + std::string(magic, 7) + "')");
  if (p.version != version)
    throw FileFormatError(path, "version",
                          "unsupported format version " + std::to_string(p.version) +
                              " (this build reads version " + std::to_string(version) +
                              ")");
  if (p.headerBytes != headerBytes)
    throw FileFormatError(path, "headerBytes",
                          "header size " + std::to_string(p.headerBytes) +
                              ", expected " + std::to_string(headerBytes));
}

std::span<const std::byte> BoundedReader::takeBytes(std::uint64_t count,
                                                    std::size_t elementBytes,
                                                    const char* field) {
  const std::size_t left = bytes_.size() - pos_;
  if (count > std::numeric_limits<std::uint64_t>::max() / elementBytes)
    throw FileFormatError(path_, field,
                          std::to_string(count) + " elements of " +
                              std::to_string(elementBytes) +
                              " bytes overflow a 64-bit size");
  if (count * elementBytes > left)
    throw FileFormatError(path_, field,
                          "truncated: needs " + std::to_string(count * elementBytes) +
                              " bytes, " + std::to_string(left) + " remain");
  const auto out = bytes_.subspan(pos_, static_cast<std::size_t>(count * elementBytes));
  pos_ += out.size();
  return out;
}

void BoundedReader::expectEnd(const char* field) const {
  if (pos_ != bytes_.size())
    throw FileFormatError(path_, field,
                          std::to_string(bytes_.size() - pos_) +
                              " trailing bytes past the last section");
}

}  // namespace lfpr
