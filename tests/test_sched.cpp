// Unit tests for src/sched: lock-free chunk scheduling, thread team,
// CPU placement hint, instrumented barrier (wait accounting, breakage),
// fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sched/barrier.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/cpu_placement.hpp"
#include "sched/fault.hpp"
#include "sched/thread_team.hpp"

namespace lfpr {
namespace {

TEST(ChunkCursor, CoversRangeExactlyOnceSingleThread) {
  ChunkCursor cursor(100, 7);
  std::vector<int> hits(100, 0);
  std::size_t b = 0, e = 0;
  while (cursor.next(b, e))
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ChunkCursor, CoversRangeExactlyOnceMultiThread) {
  constexpr std::size_t kItems = 100000;
  ChunkCursor cursor(kItems, 64);
  std::vector<std::atomic<int>> hits(kItems);
  ThreadTeam team(8);
  team.run([&](int) {
    std::size_t b = 0, e = 0;
    while (cursor.next(b, e))
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ChunkCursor, EmptyRange) {
  ChunkCursor cursor(0, 8);
  std::size_t b = 0, e = 0;
  EXPECT_FALSE(cursor.next(b, e));
}

TEST(ChunkCursor, ZeroChunkSizeTreatedAsOne) {
  ChunkCursor cursor(3, 0);
  std::size_t b = 0, e = 0;
  int chunks = 0;
  while (cursor.next(b, e)) ++chunks;
  EXPECT_EQ(chunks, 3);
}

TEST(ChunkCursor, ResetAllowsReuse) {
  ChunkCursor cursor(10, 4);
  std::size_t b = 0, e = 0;
  while (cursor.next(b, e)) {
  }
  cursor.reset();
  EXPECT_TRUE(cursor.next(b, e));
  EXPECT_EQ(b, 0u);
}

TEST(ChunkCursor, LastChunkIsPartial) {
  ChunkCursor cursor(10, 4);
  std::size_t b = 0, e = 0;
  std::size_t last = 0;
  while (cursor.next(b, e)) last = e - b;
  EXPECT_EQ(last, 2u);
}

TEST(RoundCursorSet, RoundsAreIndependent) {
  RoundCursorSet rounds(50, 8, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<int> hits(50, 0);
    std::size_t b = 0, e = 0;
    while (rounds.next(r, b, e))
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(RoundCursorSet, ConcurrentRoundsDoNotInterfere) {
  RoundCursorSet rounds(10000, 16, 4);
  std::vector<std::atomic<int>> hits(40000);
  ThreadTeam team(4);
  team.run([&](int tid) {
    // Each thread drains a different round concurrently.
    const auto r = static_cast<std::size_t>(tid);
    std::size_t b = 0, e = 0;
    while (rounds.next(r, b, e))
      for (std::size_t i = b; i < e; ++i) hits[r * 10000 + i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadTeam, RunsEveryThreadId) {
  ThreadTeam team(6);
  std::vector<std::atomic<int>> seen(6);
  team.run([&](int tid) { seen[static_cast<std::size_t>(tid)].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadTeam, ResolvesHardwareConcurrency) {
  EXPECT_GE(ThreadTeam(0).size(), 1);
  EXPECT_EQ(ThreadTeam(3).size(), 3);
}

TEST(ThreadTeam, PropagatesException) {
  ThreadTeam team(4);
  EXPECT_THROW(
      team.run([](int tid) {
        if (tid == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadTeam, SingleThreadRunsInline) {
  ThreadTeam team(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id worker;
  team.run([&](int) { worker = std::this_thread::get_id(); });
  EXPECT_EQ(worker, caller);
}

#if defined(__linux__)

TEST(CpuPlacement, LeaveCpuRestoresTheAffinityMask) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  const int cpu = currentCpu();
  ASSERT_GE(cpu, 0);
  ASSERT_TRUE(CPU_ISSET(cpu, &before));
  // One allowed CPU leaves nowhere to go: refused, nothing touched.
  EXPECT_EQ(leaveCpu(cpu), CPU_COUNT(&before) >= 2);
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(CpuPlacement, LeaveCpuRefusesCpusOutsideTheMask) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  EXPECT_FALSE(leaveCpu(-1));
  EXPECT_FALSE(leaveCpu(CPU_SETSIZE));
  int outside = 0;
  while (outside < CPU_SETSIZE && CPU_ISSET(outside, &allowed)) ++outside;
  if (outside < CPU_SETSIZE) {
    EXPECT_FALSE(leaveCpu(outside));
  }
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&allowed, &after));
}

#else

TEST(CpuPlacement, NoOpOffLinux) {
  EXPECT_EQ(currentCpu(), -1);
  EXPECT_FALSE(leaveCpu(0));
}

#endif

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 6, kPhases = 25;
  InstrumentedBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  ThreadTeam team(kThreads);
  team.run([&](int tid) {
    for (int p = 0; p < kPhases; ++p) {
      counter.fetch_add(1);
      ASSERT_EQ(barrier.arriveAndWait(tid), InstrumentedBarrier::Status::Ok);
      // After the barrier, all kThreads increments of this phase are in.
      ASSERT_EQ(counter.load() % kThreads, 0);
      ASSERT_EQ(barrier.arriveAndWait(tid), InstrumentedBarrier::Status::Ok);
    }
  });
  EXPECT_EQ(counter.load(), kThreads * kPhases);
  EXPECT_FALSE(barrier.broken());
}

TEST(Barrier, AccountsWaitTime) {
  InstrumentedBarrier barrier(2);
  ThreadTeam team(2);
  team.run([&](int tid) {
    if (tid == 1) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    barrier.arriveAndWait(tid);
  });
  // Thread 0 waited for the sleeper.
  EXPECT_GE(barrier.waitTime(0), std::chrono::milliseconds(30));
  EXPECT_GE(barrier.totalWaitTime(), std::chrono::milliseconds(30));
}

TEST(Barrier, TimesOutWhenThreadNeverArrives) {
  InstrumentedBarrier barrier(2, std::chrono::milliseconds(100));
  ThreadTeam team(2);
  std::atomic<int> brokenCount{0};
  team.run([&](int tid) {
    if (tid == 1) return;  // crash-stop: never arrives
    if (barrier.arriveAndWait(tid) == InstrumentedBarrier::Status::Broken)
      brokenCount.fetch_add(1);
  });
  EXPECT_EQ(brokenCount.load(), 1);
  EXPECT_TRUE(barrier.broken());
}

TEST(Barrier, StaysBrokenForever) {
  InstrumentedBarrier barrier(2, std::chrono::milliseconds(50));
  ThreadTeam team(2);
  team.run([&](int tid) {
    if (tid == 1) return;
    barrier.arriveAndWait(tid);
  });
  ASSERT_TRUE(barrier.broken());
  // Even a full complement of arrivals now reports Broken immediately.
  EXPECT_EQ(barrier.arriveAndWait(0), InstrumentedBarrier::Status::Broken);
  EXPECT_EQ(barrier.arriveAndWait(1), InstrumentedBarrier::Status::Broken);
}

TEST(FaultInjector, NoFaultsAlwaysProceeds) {
  FaultInjector fault(4, FaultConfig{});
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(fault.onVertexProcessed(i % 4));
  EXPECT_EQ(fault.numCrashed(), 0);
  EXPECT_EQ(fault.delaysInjected(), 0u);
  EXPECT_EQ(fault.updatesObserved(), 1000u);
}

TEST(FaultInjector, CrashesAtScheduledUpdate) {
  FaultConfig cfg;
  cfg.crashAfterUpdates = {FaultConfig::noCrash, 10};
  FaultInjector fault(2, cfg);
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(fault.onVertexProcessed(1));
  EXPECT_FALSE(fault.onVertexProcessed(1));  // 10th update crashes
  EXPECT_TRUE(fault.crashed(1));
  EXPECT_FALSE(fault.crashed(0));
  EXPECT_FALSE(fault.onVertexProcessed(1));  // stays crashed
  EXPECT_TRUE(fault.onVertexProcessed(0));
  EXPECT_EQ(fault.numCrashed(), 1);
}

TEST(FaultInjector, InjectsDelaysAtRate) {
  FaultConfig cfg;
  cfg.delayProbability = 0.05;
  cfg.delayDuration = std::chrono::microseconds(1);
  FaultInjector fault(1, cfg);
  for (int i = 0; i < 4000; ++i) fault.onVertexProcessed(0);
  const auto delays = fault.delaysInjected();
  EXPECT_GT(delays, 100u);
  EXPECT_LT(delays, 400u);
}

TEST(FaultInjector, DelayActuallySleeps) {
  FaultConfig cfg;
  cfg.delayProbability = 1.0;
  cfg.delayDuration = std::chrono::microseconds(2000);
  FaultInjector fault(1, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  fault.onVertexProcessed(0);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::microseconds(1500));
}

TEST(MakeCrashConfig, SchedulesExactCount) {
  const auto cfg = makeCrashConfig(8, 3, 100, 1000, 42);
  ASSERT_EQ(cfg.crashAfterUpdates.size(), 8u);
  int scheduled = 0;
  for (const auto c : cfg.crashAfterUpdates) {
    if (c != FaultConfig::noCrash) {
      ++scheduled;
      EXPECT_GE(c, 100u);
      EXPECT_LT(c, 1000u);
    }
  }
  EXPECT_EQ(scheduled, 3);
}

TEST(MakeCrashConfig, ZeroCrashing) {
  const auto cfg = makeCrashConfig(4, 0, 0, 10, 1);
  for (const auto c : cfg.crashAfterUpdates) EXPECT_EQ(c, FaultConfig::noCrash);
}

TEST(MakeCrashConfig, ClampsToThreadCount) {
  const auto cfg = makeCrashConfig(4, 9, 0, 10, 1);
  int scheduled = 0;
  for (const auto c : cfg.crashAfterUpdates)
    if (c != FaultConfig::noCrash) ++scheduled;
  EXPECT_EQ(scheduled, 4);
}

TEST(MakeCrashConfig, IsDeterministic) {
  const auto a = makeCrashConfig(8, 3, 10, 100, 7);
  const auto b = makeCrashConfig(8, 3, 10, 100, 7);
  EXPECT_EQ(a.crashAfterUpdates, b.crashAfterUpdates);
}

}  // namespace
}  // namespace lfpr
