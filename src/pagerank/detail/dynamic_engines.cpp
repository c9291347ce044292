#include "pagerank/detail/dynamic_engines.hpp"

#include <vector>

#include "pagerank/atomics.hpp"
#include "pagerank/detail/common.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/marking.hpp"
#include "pagerank/detail/power_bb.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/thread_team.hpp"
#include "util/timer.hpp"

namespace lfpr::detail {

PageRankResult dynamicBB(const CsrGraph& prev, const CsrGraph& curr,
                         const BatchUpdate& batch, std::span<const double> prevRanks,
                         const PageRankOptions& opt, FaultInjector* fault,
                         bool traverse, bool expandFrontier) {
  checkStepInputs(prev, curr, batch, prevRanks.size(),
                  traverse ? "dtBB" : "dfBB");
  const std::size_t n = curr.numVertices();
  const std::vector<Edge> edges = concatBatch(batch);
  AtomicU8Vector affected(n, 0);
  AtomicU8Vector notConverged(n, 0);  // unused by BB iterate; fed by marking
  AtomicU8Vector checked(n, 0);
  ChunkCursor markCursor(edges.size(), kEdgeChunkSize);

  ThreadTeam team(opt.numThreads);
  // The BB engines report no protocol counters; the marking phase counts
  // into slots that are dropped.
  StepCounterSlots markCounters(team.size());
  const Stopwatch markTimer;
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    const MarkShared shared{prev,      curr,         edges,      checked,
                            affected,  notConverged, nullptr,    opt.chunkSize,
                            markCursor, traverse,    fault};
    markAffectedWorker(shared, tid, markCounters[tid]);
  });
  const double markMs = markTimer.elapsedMs();

  BBParams params;
  params.affected = &affected;
  params.expandFrontier = expandFrontier;
  PageRankResult result = powerIterateBB(
      curr, {prevRanks.begin(), prevRanks.end()}, opt, fault, params);
  result.timeMs += markMs;
  result.affectedVertices = affected.countNonZero();
  return result;
}

PageRankResult dynamicLF(const CsrGraph& prev, const CsrGraph& curr,
                         const BatchUpdate& batch, std::span<const double> prevRanks,
                         const PageRankOptions& opt, FaultInjector* fault,
                         bool traverse, bool expandFrontier) {
  // One-shot wrapper over the resumable step API (engine_step.hpp): a
  // fresh state seeded with prevRanks, exactly one dynamic step, ranks
  // copied out. Long-lived callers (service/rank_service.cpp) keep the
  // state across steps instead. The state takes prevRanks' size, so the
  // step's input check rejects a mismatched vector.
  LfEngineState state(prevRanks.size());
  state.seedRanks(prevRanks);
  PageRankResult result =
      lfDynamicStep(state, prev, curr, batch, opt, fault, traverse,
                    expandFrontier, traverse ? "dtLF" : "dfLF");
  result.ranks = state.ranks.toVector();
  return result;
}

}  // namespace lfpr::detail
