// Write-ahead ingest journal (the PR 7 tentpole's first leg).
//
// RankService::submit appends each accepted batch here *before* it
// becomes visible to the ingest thread, so a process crash can never
// lose a journaled-then-acknowledged batch: restart recovery replays the
// journal tail (everything past the newest checkpoint) through the same
// DF step API a live ingest uses.
//
// Layout (little-endian, append-only, sibling of the edge_log format):
//
//   JournalHeader        32 bytes: magic "LFPRJNL\n", version, header
//                        size, |V| (a journal binds to one vertex set)
//   records              each: JournalRecordHeader {u64 seq, u32 nDel,
//                        u32 nIns, u64 payload checksum} followed by
//                        (nDel + nIns) x Edge (deletions first) — the
//                        edge_log record idiom with a per-record
//                        checksum, because an append-only file's failure
//                        mode is a torn *tail*, not interior corruption.
//
// The header check and the tmp-then-rename compaction write are
// util/framed_file.hpp's.
//
// Torn-tail handling is quarantine, not abort: the first record that is
// truncated, checksum-bad, out-of-sequence, or out-of-range marks clean
// EOF; the suspect bytes are preserved in "<path>.torn" for forensics
// and the file is truncated back to the last valid record so appends
// resume from a well-formed tail. A corrupt *header* quarantines the
// whole file the same way (".torn-file") — the journal belongs to the
// service, so salvage-and-continue beats refusing to start. Strict
// rejection remains the dataset-cache contract (edge_log's default).
//
// Fsync policy decides what "accepted" promises:
//
//   None         page cache only — a crash may lose recent batches;
//   Batch        fsync before the append returns — submit's true ack;
//   GroupCommit  appends return immediately; a flusher thread fsyncs
//                every `groupCommitWindow`, and waitDurable(seq) bounds
//                the ack latency to one window.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/types.hpp"

namespace lfpr {

inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr char kJournalMagic[8] = {'L', 'F', 'P', 'R',
                                          'J', 'N', 'L', '\n'};

struct JournalHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t headerBytes;
  std::uint64_t numVertices;
  std::uint64_t reserved;
};
static_assert(sizeof(JournalHeader) == 32, "header layout is part of the format");

struct JournalRecordHeader {
  std::uint64_t seq;  // 1-based, strictly increasing by 1
  std::uint32_t numDeletions;
  std::uint32_t numInsertions;
  std::uint64_t checksum;  // checksum64 over the edge payload
};
static_assert(sizeof(JournalRecordHeader) == 24,
              "record layout is part of the format");
static_assert(sizeof(Edge) == 8, "record layout is part of the format");

enum class FsyncPolicy { None, Batch, GroupCommit };

/// The journal file plus its recovery scan. Thread-safety: append() and
/// waitDurable() may race with each other and the flusher; the recovery
/// accessors (recovered / compactThrough / takeRecovered) are
/// construction-time only, before any appender runs.
class IngestJournal {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::Batch;
    std::chrono::milliseconds groupCommitWindow{5};
    /// Recovery diagnostics (torn-tail quarantine, header salvage).
    std::function<void(const std::string&)> onWarning;
  };

  struct Record {
    std::uint64_t seq = 0;
    BatchUpdate batch;
  };

  /// Open-or-create `path` and scan existing records. A torn tail is
  /// quarantined (see file comment); a valid prefix becomes recovered().
  /// Throws io::IoError only on unsalvageable I/O failure (cannot
  /// open/truncate), never on corrupt contents.
  IngestJournal(std::string path, VertexId numVertices, Options opt);

  ~IngestJournal();

  IngestJournal(const IngestJournal&) = delete;
  IngestJournal& operator=(const IngestJournal&) = delete;

  // --- recovery (constructor-time, single-threaded) ------------------

  [[nodiscard]] const std::vector<Record>& recovered() const noexcept {
    return recovered_;
  }

  /// Bytes set aside by torn-tail / corrupt-header quarantine (0 = the
  /// file was clean).
  [[nodiscard]] std::uint64_t quarantinedBytes() const noexcept {
    return quarantinedBytes_;
  }

  /// Drop recovered records with seq <= `through` (already covered by a
  /// checkpoint) and rewrite the file tmp-then-rename, bounding journal
  /// growth and replay work. Appends continue from
  /// max(scanned seq, through) + 1.
  void compactThrough(std::uint64_t through);

  /// Move out the replay tail (recovered() becomes empty).
  [[nodiscard]] std::vector<Record> takeRecovered();

  // --- append path ---------------------------------------------------

  /// Append one batch; returns its seq. Durability on return follows the
  /// fsync policy (Batch: synced; GroupCommit: pair with waitDurable).
  /// Throws io::IoError on unrecoverable write failure — the batch must
  /// then be rejected, not applied.
  std::uint64_t append(const BatchUpdate& batch);

  /// GroupCommit: block until `seq` is fsynced or a sync failure is
  /// latched; returns false on failure. Other policies return
  /// immediately (Batch: true, the append already synced).
  bool waitDurable(std::uint64_t seq);

  /// Runtime compaction, called after a checkpoint covering `through`
  /// lands: when every appended record is <= through, truncate the file
  /// back to its header (seqs keep counting — the scanner accepts any
  /// starting seq). Returns false (and leaves the file alone) when
  /// records beyond the checkpoint exist, ftruncate fails, or the
  /// journal is broken. Safe against concurrent append().
  bool resetIfCovered(std::uint64_t through);

  /// Last seq handed out (or recovered). 0 = empty journal.
  [[nodiscard]] std::uint64_t lastSeq() const;

 private:
  void scanExisting();
  void quarantineTail(std::uint64_t fromOffset,
                      std::span<const std::byte> tail, const std::string& why);
  void quarantineWholeFile(const std::string& why);
  [[nodiscard]] JournalHeader header() const;
  void writeHeader();
  void warn(const std::string& message) const;
  void startFlusher();
  void flusherLoop();

  std::string path_;
  VertexId numVertices_;
  Options opt_;
  int fd_ = -1;

  std::vector<Record> recovered_;
  std::uint64_t quarantinedBytes_ = 0;

  // Append position (byte offset of the well-formed tail) and the
  // broken latch (a failed partial-append rollback poisons the file).
  std::uint64_t tailOffset_ = sizeof(JournalHeader);
  bool broken_ = false;

  // Append/flush coordination.
  mutable std::mutex mutex_;
  std::condition_variable flushCv_;  // flusher waits for dirty appends
  std::condition_variable syncCv_;   // waitDurable waits for syncedSeq_
  std::uint64_t nextSeq_ = 1;
  std::uint64_t appendedSeq_ = 0;  // last seq written (page cache)
  std::uint64_t syncedSeq_ = 0;    // last seq known durable
  bool syncFailed_ = false;
  bool stopFlusher_ = false;
  std::thread flusher_;
};

}  // namespace lfpr
