#include "pagerank/detail/power_bb.hpp"

#include <atomic>
#include <cmath>
#include <limits>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/step_counters.hpp"
#include "pagerank/error.hpp"
#include "sched/barrier.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/thread_team.hpp"
#include "util/timer.hpp"

namespace lfpr::detail {

PageRankResult powerIterateBB(const CsrGraph& g, std::vector<double> init,
                              const PageRankOptions& opt, FaultInjector* fault,
                              const BBParams& params) {
  PageRankResult result;
  const std::size_t n = g.numVertices();
  if (n == 0) {
    result.converged = true;
    result.toleranceBound = syncToleranceBound(opt.tolerance, opt.alpha);
    return result;
  }

  ThreadTeam team(opt.numThreads);
  const int numThreads = team.size();

  std::vector<double> rankA = std::move(init);
  std::vector<double> rankB = rankA;
  InstrumentedBarrier barrier(numThreads, opt.barrierTimeout);
  ChunkCursor cursor(n, opt.chunkSize);
  std::vector<PaddedDouble> localMax(static_cast<std::size_t>(numThreads));
  StepCounterSlots counters(numThreads);

  // Swapped by thread 0 between the two barriers of each iteration; the
  // barriers order the swap against every other thread's accesses.
  std::vector<double>* cur = &rankA;
  std::vector<double>* nxt = &rankB;
  std::atomic<bool> done{false};
  std::atomic<bool> stoppedFlag{false};
  std::atomic<bool> brokenFlag{false};
  std::atomic<int> iterations{0};

  const double alpha = opt.alpha;
  const double base = (1.0 - alpha) / static_cast<double>(n);
  const double tauF = opt.frontierTolerance;
  AtomicU8Vector* affected = params.affected;

  const Stopwatch timer;
  team.run([&](int tid) {
    std::uint64_t& updates = counters[tid].rankUpdates;
    for (int it = 0; it < opt.maxIterations; ++it) {
      const std::vector<double>& ranks = *cur;
      std::vector<double>& ranksNew = *nxt;
      double threadMax = 0.0;

      std::size_t chunkBegin = 0, chunkEnd = 0;
      while (cursor.next(chunkBegin, chunkEnd)) {
        for (std::size_t i = chunkBegin; i < chunkEnd; ++i) {
          const auto v = static_cast<VertexId>(i);
          if (affected != nullptr && affected->load(v) == 0) continue;
          const double r = pullRank(g, ranks, v, alpha, base);
          const double dr = std::fabs(r - ranks[v]);
          ranksNew[v] = r;
          threadMax = std::max(threadMax, dr);
          ++updates;
          if (params.expandFrontier && dr > tauF)
            for (VertexId w : g.out(v)) markAffected(*affected, w);
          if (fault != nullptr && !fault->onVertexProcessed(tid)) {
            // Crash-stop: this thread silently stops. It never reaches the
            // barrier, so the others will eventually break out via timeout.
            return;
          }
        }
      }
      localMax[static_cast<std::size_t>(tid)].value = threadMax;

      if (barrier.arriveAndWait(tid) == InstrumentedBarrier::Status::Broken) {
        brokenFlag.store(true);
        return;
      }
      if (tid == 0) {
        double delta = 0.0;
        for (const PaddedDouble& m : localMax) delta = std::max(delta, m.value);
        iterations.store(it + 1);
        if (delta <= opt.tolerance) {
          done.store(true);
        } else if (opt.stopRequested != nullptr &&
                   opt.stopRequested->load(std::memory_order_relaxed)) {
          // Cooperative stop (service lifecycle hook): exit every thread
          // through the same barrier pair as convergence — a lone early
          // exit would break the barrier for the survivors — but record
          // the stop separately so `converged` stays honest.
          stoppedFlag.store(true);
          done.store(true);
        }
        cursor.reset();
        std::swap(cur, nxt);
      }
      if (barrier.arriveAndWait(tid) == InstrumentedBarrier::Status::Broken) {
        brokenFlag.store(true);
        return;
      }
      if (done.load()) return;
    }
  });
  result.timeMs = timer.elapsedMs();

  result.iterations = iterations.load();
  result.dnf = brokenFlag.load() || barrier.broken();
  result.stopped = stoppedFlag.load();
  result.converged = done.load() && !result.dnf && !result.stopped;
  result.toleranceBound = result.converged
                              ? syncToleranceBound(opt.tolerance, opt.alpha)
                              : std::numeric_limits<double>::infinity();
  result.waitMs = toMs(barrier.totalWaitTime());
  counters.reduceInto(result);
  result.ranks = std::move(*cur);
  return result;
}

}  // namespace lfpr::detail
