// Deterministic I/O fail-point layer (PR 7).
//
// Every durability-bearing syscall site (write / fsync / rename / mmap in
// csr_file, edge_log, the ingest journal and the checkpoint writer) passes
// through a named fail point. The hooks are compiled into every build, so
// the durability code under test is the durability code that ships. An
// unarmed site costs at most two mutex-guarded registry lookups: noise
// beside the write/fsync/rename/mmap call they guard.
//
// Two injection modes per point:
//
//   Kill   — the point throws FailPointAbort on its N-th execution and
//            latches killed(): every later hit at ANY point also aborts.
//            The latch is what makes an in-process "kill" honest — a dead
//            process writes no further bytes, so neither does a killed
//            service. Cleanup handlers that would not run in a real crash
//            (tmp unlink, journal truncation) must rethrow FailPointAbort
//            without acting.
//
//   Errno  — the point reports an errno value (EINTR, EAGAIN, ENOSPC, or
//            the short-write sentinel) for a bounded number of executions
//            and then heals. This drives the io_retry backoff paths and
//            the serve-stale ENOSPC degradation without filling any disk.
//
// Scheduling is deterministic: a point fires on an exact hit count, never
// on a probability, so the crash matrix in test_durability enumerates
// pointsSeen() from a clean run and replays each one as its own
// kill-restart-verify case. Points are armed only in process, through
// this API; nothing outside the process can arm one.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace lfpr {

/// Thrown when an armed fail point fires in Kill mode. Deliberately not
/// derived from the I/O error hierarchy: retry loops and cleanup paths
/// must treat it as "the process just died here", not as a failure to
/// handle.
class FailPointAbort : public std::exception {
 public:
  explicit FailPointAbort(std::string point);
  [[nodiscard]] const char* what() const noexcept override;
  [[nodiscard]] const std::string& point() const noexcept { return point_; }

 private:
  std::string point_;
  std::string what_;
};

/// Short-write sentinel for armErrno: instead of failing, the site writes
/// only part of the buffer, exercising the writeFully continuation path.
inline constexpr int kFailPointShortWrite = -1;

class FailPoints {
 public:
  /// Process-wide registry; starts with nothing armed.
  static FailPoints& instance();

  /// Kill mode: `point` throws FailPointAbort on its `hit`-th execution
  /// (1-based) and latches killed().
  void armKill(const std::string& point, std::uint64_t hit = 1);

  /// Errno mode: `point` reports `err` for its next `times` executions,
  /// then heals. `err` may be kFailPointShortWrite.
  void armErrno(const std::string& point, int err, std::uint64_t times = 1);

  /// Clear all arms, the killed latch, and the hit/seen bookkeeping.
  void disarmAll();

  [[nodiscard]] bool killed() const;

  /// Every point executed at least once since the last disarmAll(), in
  /// first-execution order — the crash-matrix enumeration.
  [[nodiscard]] std::vector<std::string> pointsSeen() const;

  [[nodiscard]] std::uint64_t hits(const std::string& point) const;

  // --- site hooks (use the LFPR_FAILPOINT* macros, not these) ---------

  /// Counts a hit; throws FailPointAbort when a kill is due or already
  /// latched.
  void onHit(const char* point);

  /// Counts nothing extra (onHit at the same site already did); returns
  /// the injected errno for this execution, 0 for none. Throws
  /// FailPointAbort when the kill latch is set.
  [[nodiscard]] int consumeErrno(const char* point);

 private:
  FailPoints();
  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed
};

}  // namespace lfpr

#define LFPR_FAILPOINT(point) ::lfpr::FailPoints::instance().onHit(point)
#define LFPR_FAILPOINT_ERRNO(point) \
  ::lfpr::FailPoints::instance().consumeErrno(point)
