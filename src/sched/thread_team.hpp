// A minimal fork-join thread team: the library's replacement for the
// paper's `parallel` region. Each engine makes exactly one run() call (the
// paper's "top-level parallel block") and synchronizes internally with
// ChunkCursor / InstrumentedBarrier / flag vectors.
//
// We spawn std::threads per run() rather than keeping a persistent pool,
// so a thread "crashed" by the fault injector in one run can never leak
// state into the next. The spawn is not free: on a 4-vCPU x86 host it
// measured 34-36 us per 2-thread run and 67-73 us per 4-thread run. That
// is noise beside a full solve, but not beside a small service step — a
// DeltaPush step makes two runs (seeding, then the drain sweep) inside
// a ~0.7 ms engine step on the e2e stream-small workload.
#pragma once

#include <functional>
#include <thread>

namespace lfpr {

class ThreadTeam {
 public:
  /// numThreads <= 0 selects hardware concurrency.
  explicit ThreadTeam(int numThreads);

  /// Run body(tid) on every thread of the team and join. The first
  /// exception thrown by any thread is rethrown on the caller after all
  /// threads have joined.
  void run(const std::function<void(int)>& body);

  [[nodiscard]] int size() const noexcept { return numThreads_; }

  static int resolveThreads(int requested) noexcept;

 private:
  int numThreads_;
};

}  // namespace lfpr
