// Versioned binary temporal edge log — the out-of-core counterpart of
// TemporalEdgeListData.
//
// Layout (little-endian):
//
//   EdgeLogHeader   56 bytes: magic "LFPRELG\n", version, header size,
//                   |V|, temporal edge count |E_T|, distinct static edge
//                   count |E|, payload byte count, payload checksum
//   records         |E_T| x {u32 src, u32 dst, u64 time}, 16 bytes each,
//                   stable-sorted by timestamp at write time
//
// Records are stored replay-ready (time-sorted), so a reader streams
// fixed-size chunks off a read-only mapping straight into batch
// construction: private memory is bounded by the chunk size and the
// mapped pages are evictable page cache — logs far larger than RAM
// replay fine. The distinct edge count is computed once at write time
// and carried in the header (recomputing it needs a hash set
// proportional to |E|). Framing (durable write, header check, bounded
// record slicing, FileFormatError) is util/framed_file.hpp's.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/io.hpp"
#include "graph/types.hpp"
#include "util/framed_file.hpp"
#include "util/mmap_file.hpp"

namespace lfpr {

inline constexpr std::uint32_t kEdgeLogVersion = 1;
inline constexpr char kEdgeLogMagic[8] = {'L', 'F', 'P', 'R', 'E', 'L', 'G', '\n'};

struct EdgeLogHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t headerBytes;
  std::uint64_t numVertices;
  std::uint64_t numEdges;        // temporal records, |E_T|
  std::uint64_t numStaticEdges;  // distinct (src, dst) pairs, |E|
  std::uint64_t payloadBytes;
  std::uint64_t checksum;
};
static_assert(sizeof(EdgeLogHeader) == 56, "header layout is part of the format");
static_assert(sizeof(TemporalEdge) == 16, "record layout is part of the format");

/// Serialize a temporal stream, stable-sorted by timestamp (the replay
/// protocol's order), through writeDurably. Throws io::IoError on I/O
/// failure.
void writeTemporalEdgeLog(const std::string& path, const TemporalEdgeListData& data);

/// Full in-memory read with checksum verification (tests, small logs).
TemporalEdgeListData readTemporalEdgeLog(const std::string& path);

/// Checksum pass over the records without materializing them. Throws
/// FileFormatError on any corruption. Every loader also rejects a record
/// whose endpoint is not below the header's vertex count.
void verifyTemporalEdgeLog(const std::string& path);

/// How a reader treats a file shorter than its header promises.
///
///   Strict          any size mismatch is a hard FileFormatError — the
///                   dataset-cache contract (a cache entry was written
///                   in full or it is garbage);
///   QuarantineTorn  a *shorter* file is read up to the last complete
///                   record and the torn tail is reported, not thrown —
///                   the append/crash contract (a torn final write must
///                   not make the whole log unrecoverable). A *longer*
///                   file is still a hard error: appends past the
///                   recorded count are not a crash artifact.
enum class LogTailPolicy { Strict, QuarantineTorn };

/// Streaming reader with bounded memory: validates the header and size
/// arithmetic on open (use verifyTemporalEdgeLog for the checksum pass —
/// a cursor that stops early never sees the whole payload), then serves
/// arbitrary-position chunk reads.
class TemporalEdgeLogReader {
 public:
  explicit TemporalEdgeLogReader(const std::string& path,
                                 LogTailPolicy tail = LogTailPolicy::Strict);

  [[nodiscard]] VertexId numVertices() const noexcept { return numVertices_; }
  [[nodiscard]] EdgeId numEdges() const noexcept { return records_.size(); }
  [[nodiscard]] EdgeId numStaticEdges() const noexcept { return numStaticEdges_; }

  /// QuarantineTorn only: true when the file ended before the header's
  /// record count; numEdges() was clamped to the complete records.
  [[nodiscard]] bool tornTail() const noexcept { return tornTail_; }

  /// Bytes past the last complete record (0 when the file was clean).
  [[nodiscard]] std::uint64_t quarantinedBytes() const noexcept {
    return quarantinedBytes_;
  }

  /// Position the cursor at record `index` (clamped to the record count).
  void seek(EdgeId index);

  /// Read up to out.size() records at the cursor; returns the number
  /// actually read (0 at end of log).
  std::size_t read(std::span<TemporalEdge> out);

 private:
  friend TemporalEdgeListData readTemporalEdgeLog(const std::string& path);
  friend void verifyTemporalEdgeLog(const std::string& path);

  /// Checksum and endpoint pass over every record.
  void verify() const;

  MmapFile map_;
  std::span<const TemporalEdge> records_;  // the complete records present
  std::string path_;
  VertexId numVertices_ = 0;
  EdgeId numStaticEdges_ = 0;
  std::uint64_t checksum_ = 0;
  EdgeId pos_ = 0;
  bool tornTail_ = false;
  std::uint64_t quarantinedBytes_ = 0;
};

}  // namespace lfpr
