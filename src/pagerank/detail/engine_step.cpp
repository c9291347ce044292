#include "pagerank/detail/engine_step.hpp"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/delta_push.hpp"
#include "pagerank/detail/lf_iterate.hpp"
#include "pagerank/detail/marking.hpp"
#include "pagerank/error.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/thread_team.hpp"
#include "util/timer.hpp"

namespace lfpr::detail {

namespace {

/// A zero-vertex graph is trivially converged.
PageRankResult emptyGraphResult(const PageRankOptions& opt) {
  PageRankResult result;
  result.converged = true;
  result.toleranceBound = asyncToleranceBound(opt.tolerance, opt.alpha);
  return result;
}

/// The common tail of every exact step. The flags, not allConverged, are
/// the authority for `converged`: the finish pass can itself hit the
/// round cap and leave the run honestly unconverged.
void finishResult(PageRankResult& result, const PageRankOptions& opt,
                  bool flagsClean, const std::atomic<int>& maxRound,
                  const StepCounterSlots& counters) {
  result.converged = flagsClean;
  result.stopped = stopSeen(opt);
  result.toleranceBound =
      result.converged ? asyncToleranceBound(opt.tolerance, opt.alpha)
                       : std::numeric_limits<double>::infinity();
  result.iterations = maxRound.load();
  counters.reduceInto(result);
}

}  // namespace

void checkBatchEdges(const BatchUpdate& batch, std::size_t numVertices,
                     const char* name) {
  for (const auto* edges : {&batch.deletions, &batch.insertions})
    for (const Edge& e : *edges)
      if (e.src >= numVertices || e.dst >= numVertices)
        throw std::out_of_range(std::string(name) + ": batch edge out of range");
}

void checkStepInputs(const CsrGraph& prev, const CsrGraph& curr,
                     const BatchUpdate& batch, std::size_t numRanks,
                     const char* name) {
  if (numRanks != curr.numVertices())
    throw std::invalid_argument(std::string(name) +
                                ": prevRanks size must match graph");
  if (prev.numVertices() != curr.numVertices())
    throw std::invalid_argument(
        std::string(name) +
        ": snapshots must share the vertex set (no vertex insertions/deletions)");
  checkBatchEdges(batch, curr.numVertices(), name);
}

PageRankResult lfFullStep(LfEngineState& state, const CsrGraph& curr,
                          const PageRankOptions& opt, FaultInjector* fault) {
  const std::size_t n = curr.numVertices();
  if (n != state.size())
    throw std::invalid_argument("lfFullStep: state size must match graph");
  if (n == 0) return emptyGraphResult(opt);

  ThreadTeam team(opt.numThreads);
  PageRankOptions resolved = opt;
  resolved.numThreads = team.size();

  // Paper Algorithm 4 note: RC semantics are 1 = "rank has not yet
  // converged"; every vertex starts unconverged for Static/ND.
  state.notConverged.fill(1);
  state.residualValid = false;  // ranks will move outside residual tracking
  state.monteCarloValid = false;  // ...and outside walk maintenance
  RoundCursorSet rounds(n, resolved.chunkSize,
                        static_cast<std::size_t>(resolved.maxIterations));
  std::atomic<bool> allConverged{false};
  std::atomic<int> maxRound{0};
  StepCounterSlots counters(team.size());

  const LfShared shared{curr,
                        state.ranks,
                        state.notConverged,
                        /*affected=*/nullptr,
                        /*expandFrontier=*/false,
                        /*chunkFlags=*/nullptr,
                        rounds,
                        allConverged,
                        maxRound,
                        counters,
                        resolved,
                        fault};
  const Stopwatch timer;
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    lfIterateWorker(shared, tid);
  });
  // Absorb flags re-marked by workers that were still in flight when the
  // convergence scan passed (termination protocol, part 3).
  lfFinishSequential(shared);
  PageRankResult result;
  result.timeMs = timer.elapsedMs();
  finishResult(result, resolved, state.notConverged.allZero(), maxRound,
               counters);
  return result;
}

PageRankResult lfDynamicStep(LfEngineState& state, const CsrGraph& prev,
                             const CsrGraph& curr, const BatchUpdate& batch,
                             const PageRankOptions& opt, FaultInjector* fault,
                             bool traverse, bool expandFrontier,
                             const char* name) {
  checkStepInputs(prev, curr, batch, state.size(), name);
  const std::size_t n = curr.numVertices();

  if (n == 0) return emptyGraphResult(opt);

  ThreadTeam team(opt.numThreads);
  PageRankOptions resolved = opt;
  resolved.numThreads = team.size();

  const std::vector<Edge> edges = concatBatch(batch);
  state.affected.fill(0);
  state.notConverged.fill(0);
  state.checked.fill(0);
  state.residualValid = false;  // ranks will move outside residual tracking
  state.monteCarloValid = false;  // ...and outside walk maintenance

  const bool perChunk = resolved.perChunkConvergence;
  const std::size_t numChunks = (n + resolved.chunkSize - 1) / resolved.chunkSize;
  AtomicU8Vector chunkFlags(perChunk ? numChunks : 0, 0);
  AtomicU8Vector* chunkFlagsPtr = perChunk ? &chunkFlags : nullptr;

  ChunkCursor markCursor(edges.size(), kEdgeChunkSize);
  RoundCursorSet rounds(n, resolved.chunkSize,
                        static_cast<std::size_t>(resolved.maxIterations));
  std::atomic<bool> allConverged{false};
  std::atomic<int> maxRound{0};
  StepCounterSlots counters(team.size());

  const LfShared iterate{curr,
                         state.ranks,
                         state.notConverged,
                         &state.affected,
                         expandFrontier,
                         chunkFlagsPtr,
                         rounds,
                         allConverged,
                         maxRound,
                         counters,
                         resolved,
                         fault};
  const Stopwatch timer;
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    const MarkShared mark{prev,       curr,
                          edges,      state.checked,
                          state.affected, state.notConverged,
                          chunkFlagsPtr,  resolved.chunkSize,
                          markCursor, traverse,
                          fault};
    if (!markAffectedWorker(mark, tid, counters[tid])) return;  // crashed
    lfIterateWorker(iterate, tid);
  });
  // Absorb flags re-marked by workers that were still in flight when the
  // convergence scan passed (termination protocol, part 3).
  lfFinishSequential(iterate);
  PageRankResult result;
  result.timeMs = timer.elapsedMs();
  finishResult(result, resolved,
               chunkFlagsPtr != nullptr ? chunkFlags.allZero()
                                        : state.notConverged.allZero(),
               maxRound, counters);
  result.affectedVertices = state.affected.countNonZero();
  return result;
}

PageRankResult lfDeltaPushStep(LfEngineState& state, const CsrGraph& prev,
                               const CsrGraph& curr, const BatchUpdate& batch,
                               const PageRankOptions& opt, FaultInjector* fault,
                               const char* name) {
  checkStepInputs(prev, curr, batch, state.size(), name);
  const std::size_t n = curr.numVertices();

  if (n == 0) return emptyGraphResult(opt);

  ThreadTeam team(opt.numThreads);
  PageRankOptions resolved = opt;
  resolved.numThreads = team.size();

  const std::vector<Edge> edges = concatBatch(batch);
  state.affected.fill(0);
  state.notConverged.fill(0);
  state.checked.fill(0);

  // Residual persistence (see LfEngineState): after a converged push step
  // the parked sub-threshold residuals are still-valid pending mass, so
  // only an invalidated array pays the O(n) clear.
  AtomicF64Vector& residual = state.ensureResidual();
  if (!state.residualValid) residual.fill(0.0);
  state.residualValid = false;  // re-validated below only on convergence
  state.monteCarloValid = false;  // ranks move outside walk maintenance

  const std::size_t numSeedChunks =
      (n + resolved.chunkSize - 1) / resolved.chunkSize;
  AtomicU8Vector seedDone(numSeedChunks, 0);
  ChunkCursor markCursor(edges.size(), kEdgeChunkSize);
  ChunkCursor seedCursor(n, resolved.chunkSize);
  RoundCursorSet rounds(n, resolved.chunkSize,
                        static_cast<std::size_t>(resolved.maxIterations));
  std::atomic<bool> allConverged{false};
  std::atomic<int> maxRound{0};
  StepCounterSlots counters(team.size());

  const DeltaPushShared shared{curr,        state.ranks, residual,
                               state.notConverged,       state.affected,
                               seedDone,    seedCursor,  rounds,
                               allConverged, maxRound,   counters,
                               resolved,    fault};
  const Stopwatch timer;
  // Phase A: DF marking, then residual seeding against the still-frozen
  // ranks. The helping rescans inside both workers mean a returning
  // thread has seen every chunk finished — and the join plus the
  // sequential repair below cover the all-crashed corner.
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    const MarkShared mark{prev,       curr,
                          edges,      state.checked,
                          state.affected, state.notConverged,
                          /*chunkFlags=*/nullptr, resolved.chunkSize,
                          markCursor, /*traverse=*/false,
                          fault};
    if (!markAffectedWorker(mark, tid, counters[tid])) return;  // crashed
    seedResidualWorker(shared, tid);
  });
  seedResidualRepair(shared);

  // Phase B: ranks start moving only now, with every seed in place.
  if (!stopSeen(resolved)) {
    team.run([&](int tid) {
      if (fault != nullptr && fault->crashed(tid)) return;
      deltaPushWorker(shared, tid);
    });
  }
  // Absorb flags re-marked by drains that were still in flight when the
  // convergence scan passed (termination protocol, part 3).
  deltaPushFinishSequential(shared);
  PageRankResult result;
  result.timeMs = timer.elapsedMs();
  finishResult(result, resolved, state.notConverged.allZero(), maxRound,
               counters);
  state.residualValid = result.converged;
  result.affectedVertices = state.affected.countNonZero();
  return result;
}

}  // namespace lfpr::detail
