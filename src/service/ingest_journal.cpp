#include "service/ingest_journal.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "util/checksum.hpp"
#include "util/framed_file.hpp"

namespace lfpr {

namespace {

/// Serialized record: header then deletions then insertions, one
/// contiguous buffer so the append is a single write(2) — the torn-tail
/// scanner then sees at most one partial record, never an interleaving.
std::vector<std::byte> encodeRecord(std::uint64_t seq,
                                    const BatchUpdate& batch) {
  JournalRecordHeader rh{};
  rh.seq = seq;
  rh.numDeletions = static_cast<std::uint32_t>(batch.deletions.size());
  rh.numInsertions = static_cast<std::uint32_t>(batch.insertions.size());
  Checksum64 sum;
  sum.update(std::as_bytes(std::span(batch.deletions)));
  sum.update(std::as_bytes(std::span(batch.insertions)));
  rh.checksum = sum.value();

  std::vector<std::byte> buf(sizeof(rh) + batch.size() * sizeof(Edge));
  std::byte* p = buf.data();
  std::memcpy(p, &rh, sizeof(rh));
  p += sizeof(rh);
  if (!batch.deletions.empty()) {
    std::memcpy(p, batch.deletions.data(),
                batch.deletions.size() * sizeof(Edge));
    p += batch.deletions.size() * sizeof(Edge);
  }
  if (!batch.insertions.empty())
    std::memcpy(p, batch.insertions.data(),
                batch.insertions.size() * sizeof(Edge));
  return buf;
}

[[noreturn]] void throwErrno(const std::string& path, const std::string& what) {
  const int err = errno;
  throw io::IoError("ingest journal '" + path + "': " + what + ": " +
                        std::strerror(err),
                    err);
}

}  // namespace

IngestJournal::IngestJournal(std::string path, VertexId numVertices,
                             Options opt)
    : path_(std::move(path)), numVertices_(numVertices), opt_(std::move(opt)) {
  LFPR_FAILPOINT("journal.open");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throwErrno(path_, "cannot open");
  try {
    scanExisting();
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  startFlusher();
}

IngestJournal::~IngestJournal() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopFlusher_ = true;
  }
  flushCv_.notify_all();
  syncCv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) {
    if (opt_.fsync != FsyncPolicy::None) {
      try {
        io::fsyncRetry(fd_, "ingest journal '" + path_ + "'",
                       "journal.append.fsync");
      } catch (...) {
        // Destructor: a failed final sync only weakens the last window's
        // durability, which recovery already tolerates.
      }
    }
    ::close(fd_);
  }
}

void IngestJournal::warn(const std::string& message) const {
  if (opt_.onWarning) opt_.onWarning(message);
}

JournalHeader IngestJournal::header() const {
  auto h = initHeader<JournalHeader>(kJournalMagic, kJournalVersion);
  h.numVertices = numVertices_;
  return h;
}

void IngestJournal::writeHeader() {
  const JournalHeader h = header();
  io::pwriteFully(fd_, &h, sizeof(h), 0, "ingest journal '" + path_ + "'",
                  "journal.append.write");
  tailOffset_ = sizeof(JournalHeader);
}

void IngestJournal::quarantineTail(std::uint64_t fromOffset,
                                   std::span<const std::byte> tail,
                                   const std::string& why) {
  quarantinedBytes_ += tail.size();
  // Preserve the suspect bytes for forensics — best effort; losing the
  // quarantine copy must not block recovery.
  const std::string side = path_ + ".torn";
  const int sfd =
      ::open(side.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (sfd >= 0) {
    try {
      io::writeFully(sfd, tail.data(), tail.size(),
                     "journal quarantine '" + side + "'",
                     "journal.quarantine.write");
    } catch (const FailPointAbort&) {
      ::close(sfd);
      throw;
    } catch (...) {
      // forensics only
    }
    ::close(sfd);
  }
  // The truncation is load-bearing: appends must land on a well-formed
  // tail, not after torn bytes.
  while (::ftruncate(fd_, static_cast<off_t>(fromOffset)) != 0)
    if (errno != EINTR) throwErrno(path_, "cannot truncate torn tail");
  warn("ingest journal '" + path_ + "': quarantined " +
       std::to_string(tail.size()) + " torn tail bytes (" + why +
       "); treating as clean EOF");
}

void IngestJournal::quarantineWholeFile(const std::string& why) {
  struct ::stat st{};
  const std::uint64_t size =
      ::fstat(fd_, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  quarantinedBytes_ += size;
  const std::string side = path_ + ".torn-file";
  std::error_code ignored;
  std::filesystem::copy_file(path_, side,
                             std::filesystem::copy_options::overwrite_existing,
                             ignored);  // forensics, best effort
  while (::ftruncate(fd_, 0) != 0)
    if (errno != EINTR) throwErrno(path_, "cannot reset corrupt file");
  warn("ingest journal '" + path_ + "': unreadable header (" + why +
       "); quarantined " + std::to_string(size) + " bytes and started fresh");
  writeHeader();
}

void IngestJournal::scanExisting() {
  struct ::stat st{};
  if (::fstat(fd_, &st) != 0) throwErrno(path_, "cannot stat");
  const auto fileSize = static_cast<std::uint64_t>(st.st_size);

  if (fileSize == 0) {
    writeHeader();
    return;
  }

  std::vector<std::byte> buf(fileSize);
  std::ifstream in(path_, std::ios::binary);
  in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(fileSize));
  const std::span<const std::byte> file(buf.data(), static_cast<std::size_t>(in.gcount()));
  JournalHeader h{};
  try {
    h = readHeader<JournalHeader>(file, kJournalMagic, kJournalVersion, path_);
  } catch (const FileFormatError& e) {
    quarantineWholeFile(e.what());
    return;
  }
  if (h.numVertices != numVertices_) {
    quarantineWholeFile("vertex count " + std::to_string(h.numVertices) +
                        " does not match the service's " +
                        std::to_string(numVertices_));
    return;
  }

  // Records carry explicit seqs and must increase by exactly 1; the
  // first record's seq is whatever checkpoint-coverage resets left as
  // the base (1 for a virgin journal).
  const auto inRange = [&](const Edge& e) {
    return e.src < numVertices_ && e.dst < numVertices_;
  };
  std::uint64_t offset = sizeof(JournalHeader);
  std::uint64_t expectSeq = 0;  // 0 = accept any first seq >= 1
  BoundedReader r(file.subspan(offset), path_);
  while (offset < file.size()) {
    Record rec;
    try {
      const auto rh = r.readOne<JournalRecordHeader>("record header");
      if (rh.seq == 0 || (expectSeq != 0 && rh.seq != expectSeq))
        throw FileFormatError(path_, "seq",
                              "sequence break at record " + std::to_string(expectSeq));
      expectSeq = rec.seq = rh.seq;
      r.readVector(rec.batch.deletions, rh.numDeletions, "numDeletions");
      r.readVector(rec.batch.insertions, rh.numInsertions, "numInsertions");
      Checksum64 sum;
      sum.update(std::as_bytes(std::span(rec.batch.deletions)));
      sum.update(std::as_bytes(std::span(rec.batch.insertions)));
      if (sum.value() != rh.checksum)
        throw FileFormatError(path_, "checksum", "record checksum mismatch");
      if (!std::all_of(rec.batch.deletions.begin(), rec.batch.deletions.end(), inRange) ||
          !std::all_of(rec.batch.insertions.begin(), rec.batch.insertions.end(), inRange))
        throw FileFormatError(path_, "edges", "edge endpoint out of range");
    } catch (const FileFormatError& e) {
      quarantineTail(offset, file.subspan(offset), e.what());
      break;
    }
    offset += sizeof(JournalRecordHeader) + rec.batch.size() * sizeof(Edge);
    recovered_.push_back(std::move(rec));
    ++expectSeq;
  }
  tailOffset_ = offset;
  if (expectSeq != 0) {  // at least one record passed the seq check
    nextSeq_ = expectSeq;
    appendedSeq_ = expectSeq - 1;
    syncedSeq_ = expectSeq - 1;
  }
}

void IngestJournal::compactThrough(std::uint64_t through) {
  if (through >= nextSeq_) nextSeq_ = through + 1;
  const auto keepFrom = std::find_if(
      recovered_.begin(), recovered_.end(),
      [&](const Record& r) { return r.seq > through; });
  if (keepFrom == recovered_.begin()) return;  // nothing covered, no rewrite
  recovered_.erase(recovered_.begin(), keepFrom);

  writeDurably(path_,
               {"journal.open", "journal.append.fsync", "journal.compact.rename"},
               [&](io::FdFile& out) {
                 const JournalHeader h = header();
                 out.write(&h, sizeof(h), "journal.compact.write");
                 for (const Record& r : recovered_) {
                   const auto buf = encodeRecord(r.seq, r.batch);
                   out.write(buf.data(), buf.size(), "journal.compact.write");
                 }
               });

  // Swap the fd to the compacted file.
  const int nfd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (nfd < 0) throwErrno(path_, "cannot reopen after compaction");
  ::close(fd_);
  fd_ = nfd;
  struct ::stat st{};
  ::fstat(fd_, &st);
  tailOffset_ = static_cast<std::uint64_t>(st.st_size);
}

std::vector<IngestJournal::Record> IngestJournal::takeRecovered() {
  return std::exchange(recovered_, {});
}

std::uint64_t IngestJournal::append(const BatchUpdate& batch) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (broken_)
    throw io::IoError("ingest journal '" + path_ +
                          "': unusable after an unrecoverable write failure",
                      EIO);
  const std::uint64_t seq = nextSeq_;
  const auto buf = encodeRecord(seq, batch);
  // The scan and header rewrite use pread/pwrite, which leave the file
  // offset wherever open() put it — position explicitly on the
  // well-formed tail before the (offset-advancing) record write.
  if (::lseek(fd_, static_cast<off_t>(tailOffset_), SEEK_SET) < 0)
    throw io::IoError("ingest journal '" + path_ +
                          "': cannot seek to tail: " + std::strerror(errno),
                      errno);
  try {
    io::writeFully(fd_, buf.data(), buf.size(),
                   "ingest journal '" + path_ + "'", "journal.append.write");
  } catch (const FailPointAbort&) {
    throw;  // simulated process death: no cleanup, like a real kill
  } catch (...) {
    // A partial append would corrupt the tail for every later record;
    // roll the file back to the last good boundary before rethrowing.
    if (::ftruncate(fd_, static_cast<off_t>(tailOffset_)) != 0) broken_ = true;
    throw;
  }
  nextSeq_ = seq + 1;
  appendedSeq_ = seq;
  tailOffset_ += buf.size();

  switch (opt_.fsync) {
    case FsyncPolicy::None:
      break;
    case FsyncPolicy::Batch:
      io::fsyncRetry(fd_, "ingest journal '" + path_ + "'",
                     "journal.append.fsync");
      syncedSeq_ = seq;
      break;
    case FsyncPolicy::GroupCommit:
      lock.unlock();
      flushCv_.notify_one();
      break;
  }
  return seq;
}

bool IngestJournal::waitDurable(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (opt_.fsync != FsyncPolicy::GroupCommit)
    return syncedSeq_ >= seq || opt_.fsync == FsyncPolicy::None;
  syncCv_.wait(lock, [&] {
    return syncedSeq_ >= seq || syncFailed_ || stopFlusher_;
  });
  return syncedSeq_ >= seq;
}

bool IngestJournal::resetIfCovered(std::uint64_t through) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (broken_ || appendedSeq_ > through) return false;
  if (tailOffset_ == sizeof(JournalHeader)) return true;  // already empty
  LFPR_FAILPOINT("journal.reset.truncate");
  while (::ftruncate(fd_, sizeof(JournalHeader)) != 0) {
    if (errno == EINTR) continue;
    return false;
  }
  tailOffset_ = sizeof(JournalHeader);
  return true;
}

std::uint64_t IngestJournal::lastSeq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nextSeq_ - 1;
}

void IngestJournal::startFlusher() {
  if (opt_.fsync != FsyncPolicy::GroupCommit) return;
  flusher_ = std::thread([this] { flusherLoop(); });
}

void IngestJournal::flusherLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    flushCv_.wait(lock, [&] {
      return stopFlusher_ || appendedSeq_ > syncedSeq_;
    });
    if (appendedSeq_ <= syncedSeq_) {
      if (stopFlusher_) return;
      continue;
    }
    // Bounded-latency group commit: sleep one window so concurrent
    // appends coalesce into a single fsync, then sync up to the newest.
    lock.unlock();
    std::this_thread::sleep_for(opt_.groupCommitWindow);
    lock.lock();
    const std::uint64_t target = appendedSeq_;
    lock.unlock();
    bool ok = true;
    try {
      io::fsyncRetry(fd_, "ingest journal '" + path_ + "'",
                     "journal.append.fsync");
    } catch (...) {
      ok = false;
    }
    lock.lock();
    if (ok) {
      syncedSeq_ = target;
    } else {
      syncFailed_ = true;
      warn("ingest journal '" + path_ +
           "': group-commit fsync failed; acks suspended");
    }
    syncCv_.notify_all();
    if (syncFailed_) {
      // Stay alive to honor stop, but no further syncs will succeed
      // deterministically — park until shutdown.
      flushCv_.wait(lock, [&] { return stopFlusher_; });
      return;
    }
    if (stopFlusher_ && appendedSeq_ <= syncedSeq_) return;
  }
}

}  // namespace lfpr
