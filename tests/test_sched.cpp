// Unit tests for src/sched: lock-free chunk scheduling, thread team,
// CPU placement hint, instrumented barrier (wait accounting, breakage),
// fault injection, the work rings DeltaPush runs on.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "sched/work_ring.hpp"
#include "util/rng.hpp"

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

// ----- WorkRing / WorklistScheduler (DeltaPush rings) ---------------------

TEST(WorkRing, FifoSingleThread) {
  WorkRing ring(8);
  EXPECT_GE(ring.capacity(), 8u);
  EXPECT_TRUE(ring.empty());
  for (VertexId v = 0; v < 8; ++v) EXPECT_TRUE(ring.tryPush(v));
  VertexId v = 0;
  for (VertexId want = 0; want < 8; ++want) {
    ASSERT_TRUE(ring.tryPop(v));
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(ring.tryPop(v));
  EXPECT_TRUE(ring.empty());
}

TEST(WorkRing, FullRingRefusesPush) {
  WorkRing ring(2);  // capacity rounds to 2
  ASSERT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.tryPush(1));
  EXPECT_TRUE(ring.tryPush(2));
  EXPECT_FALSE(ring.tryPush(3));
  VertexId v = 0;
  ASSERT_TRUE(ring.tryPop(v));
  EXPECT_TRUE(ring.tryPush(3));  // slot recycled after the pop
}

TEST(WorkRing, WrapsAroundManyTimes) {
  WorkRing ring(4);
  VertexId v = 0;
  for (VertexId i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.tryPush(i));
    ASSERT_TRUE(ring.tryPop(v));
    EXPECT_EQ(v, i);
  }
}

TEST(WorkRing, ConcurrentProducersOneConsumerDeliverEverythingOnce) {
  constexpr int kProducers = 3;
  constexpr VertexId kPerProducer = 5000;
  WorkRing ring(kProducers * kPerProducer);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::atomic<int> produced{0};

  ThreadTeam team(kProducers + 1);
  team.run([&](int tid) {
    if (tid < kProducers) {
      for (VertexId i = 0; i < kPerProducer; ++i) {
        const VertexId v = static_cast<VertexId>(tid) * kPerProducer + i;
        while (!ring.tryPush(v)) std::this_thread::yield();
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      int got = 0;
      VertexId v = 0;
      while (got < kProducers * static_cast<int>(kPerProducer)) {
        if (ring.tryPop(v)) {
          seen[v].fetch_add(1, std::memory_order_relaxed);
          ++got;
        } else {
          std::this_thread::yield();
        }
      }
    }
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(WorklistScheduler, PartitionCoversVertexRangeExactlyOnce) {
  for (const auto& [n, threads] : {std::pair<std::size_t, int>{100, 4},
                                  {7, 8},
                                  {4096, 3},
                                  {1, 1}}) {
    WorklistScheduler wl(n, threads);
    std::size_t covered = 0;
    for (int t = 0; t < wl.numThreads(); ++t) {
      EXPECT_LE(wl.ownedBegin(t), wl.ownedEnd(t));
      covered += wl.ownedEnd(t) - wl.ownedBegin(t);
      for (std::size_t v = wl.ownedBegin(t); v < wl.ownedEnd(t); ++v)
        EXPECT_EQ(wl.owner(v), t);
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(WorklistScheduler, EnqueueDeduplicatesUntilPopped) {
  WorklistScheduler wl(64, 2);
  wl.enqueue(5);
  wl.enqueue(5);  // dedup: still one in-flight entry
  VertexId v = 0;
  ASSERT_TRUE(wl.tryPop(wl.owner(5), v));
  EXPECT_EQ(v, 5u);
  EXPECT_FALSE(wl.tryPop(wl.owner(5), v));
  wl.enqueue(5);  // re-enqueue allowed after the pop
  ASSERT_TRUE(wl.tryPop(wl.owner(5), v));
  EXPECT_EQ(v, 5u);
}

TEST(WorklistScheduler, EnqueueRoutesToOwnerRing) {
  WorklistScheduler wl(100, 4);
  for (std::size_t v = 0; v < 100; ++v) wl.enqueue(v);
  std::vector<std::uint8_t> seen(100, 0);
  for (int t = 0; t < 4; ++t) {
    VertexId v = 0;
    while (wl.tryPop(t, v)) {
      EXPECT_EQ(wl.owner(v), t) << "vertex " << v << " popped from ring " << t;
      EXPECT_EQ(seen[v], 0);
      seen[v] = 1;
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 100);
}

TEST(WorklistScheduler, StealDrainsForeignRings) {
  WorklistScheduler wl(64, 4);
  wl.enqueue(2);   // ring 0
  wl.enqueue(63);  // ring 3
  std::vector<VertexId> got;
  VertexId v = 0;
  while (wl.trySteal(1, v)) got.push_back(v);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<VertexId>{2, 63}));
}

TEST(WorklistScheduler, ConcurrentMarkersNeverExceedOneEntryPerVertex) {
  // 4 markers hammer the same 32 vertices; each pop is matched against a
  // per-vertex in-flight counter. The dedup flag must keep every vertex
  // at <= 1 ring entry, and owner-sized rings must therefore never refuse
  // a push (WorklistScheduler::enqueue's overflow valve stays cold).
  constexpr std::size_t kN = 32;
  WorklistScheduler wl(kN, 2);
  std::atomic<bool> stop{false};
  std::vector<std::atomic<int>> inFlight(kN);

  ThreadTeam team(6);
  team.run([&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) + 1);
    if (tid < 4) {  // markers
      for (int i = 0; i < 20000; ++i)
        wl.enqueue(static_cast<std::size_t>(rng.uniform() * kN) % kN);
    } else {  // consumers (tids 4,5 drain rings 0,1)
      const int ring = tid - 4;
      VertexId v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (wl.tryPop(ring, v)) {
          const int entries = inFlight[v].fetch_add(1) + 1;
          EXPECT_EQ(entries, 1) << "vertex " << v;
          inFlight[v].fetch_sub(1);
        } else {
          std::this_thread::yield();
        }
      }
      while (wl.tryPop(ring, v)) {
      }
    }
    if (tid < 4) stop.store(true, std::memory_order_relaxed);
  });
}

}  // namespace
}  // namespace lfpr
