// Lock-free delta-push residual iteration (the PR 8 engine family).
//
// The pull engines re-pull every incident in-edge of a dirty vertex on
// every visit until it converges. Delta-push instead propagates only the
// *changed mass*: each vertex carries an atomic residual accumulator
// (the pending change to its rank), a batch seeds residuals at the
// DF-marked vertices with ONE pull each, and from then on the iteration
// is pull-free — draining a vertex applies its residual to its rank and
// forward-pushes `alpha * residual[v] * invOutDeg[v]` to each
// out-neighbour with a lock-free fetch-add (AtomicF64Vector::fetchAdd;
// no per-vertex spin-locks, unlike Ligra's PRDelta). A push that moves a
// neighbour's residual across the activation threshold marks its RC
// flag, and workers find flagged vertices with the pull engines' chunked
// flag sweep (lf_iterate.cpp).
// Residual magnitudes decay geometrically (alpha per hop), so total
// touched edges scale with the injected mass, not with frontier-size
// times iterations — the mid-density fig7 band where the pull sweep
// does redundant work.
//
// Convergence authority is unchanged: the PR 1 flag protocol decides
// termination (flags, never residuals), and residual drains feed the
// same clear-then-reverify marks. See the protocol note at the top of
// delta_push.cpp for how each invariant maps onto residual mass.
#pragma once

#include <atomic>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/detail/step_counters.hpp"
#include "pagerank/options.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/fault.hpp"

namespace lfpr::detail {

struct DeltaPushShared {
  const CsrGraph& graph;
  AtomicF64Vector& ranks;
  /// Per-vertex pending-mass accumulators (LfEngineState::residual).
  AtomicF64Vector& residual;
  /// The termination protocol's RC flags — the sole convergence
  /// authority, exactly as in lf_iterate.cpp.
  AtomicU8Vector& notConverged;
  /// Marking-phase output: the seed set (vertices whose pull changed).
  AtomicU8Vector& affected;
  /// Per-chunk seed-completion flags (phase A helping; see .cpp).
  AtomicU8Vector& seedDone;
  /// Shared chunk pool over the vertex range for the seed sweep.
  ChunkCursor& seedCursor;
  /// Phase B: one chunk pool per round, as in LfShared.
  RoundCursorSet& rounds;
  std::atomic<bool>& allConverged;
  std::atomic<int>& maxRound;
  /// Worker tid counts into counters[tid], the post-join passes into
  /// counters.sequential().
  StepCounterSlots& counters;
  const PageRankOptions& opt;
  FaultInjector* fault = nullptr;
};

/// Phase A worker body (after markAffectedWorker): seed the residuals of
/// affected vertices from a chunk pool, then help-rescan unfinished
/// chunks. Returns false if this thread crashed (fault injection).
bool seedResidualWorker(const DeltaPushShared& s, int tid);

/// Sequential phase A repair, run by the engine's caller after the seed
/// team joined: re-executes any chunk no surviving thread finished
/// (idempotent — ranks are frozen until phase B starts).
void seedResidualRepair(const DeltaPushShared& s);

/// Phase B worker body: per round, drain the flagged vertices of every
/// chunk taken from the round's pool, then scan for convergence. Returns
/// at convergence, the round cap, a stop request or a crash.
void deltaPushWorker(const DeltaPushShared& s, int tid);

/// Post-join completion pass (termination protocol part 3): absorbs
/// flags re-marked by in-flight drains after the convergence scan
/// passed. Gated on allConverged like lfFinishSequential.
void deltaPushFinishSequential(const DeltaPushShared& s);

}  // namespace lfpr::detail
