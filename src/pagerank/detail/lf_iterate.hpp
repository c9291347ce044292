// Lock-free asynchronous iteration core shared by StaticLF, NDLF, DTLF
// and DFLF (Algorithms 4, 6, 8 and 2).
//
// Runs *inside* an already-spawned thread team (the paper's single
// top-level parallel block): each worker independently drains dynamic
// chunks of the current round with no barrier between rounds, updates
// ranks in-place on the shared atomic vector, maintains the per-vertex
// converged flags RC, and stops when it observes RC[v] == 0 for all v.
// A crashed or stalled thread merely stops taking chunks; its vertices
// are re-processed by the surviving threads in subsequent rounds (the
// RC flags keep the algorithm from terminating before that happens).
#pragma once

#include <atomic>
#include <cstdint>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/detail/step_counters.hpp"
#include "pagerank/options.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/fault.hpp"

namespace lfpr::detail {

struct LfShared {
  const CsrGraph& graph;
  AtomicF64Vector& ranks;
  /// Per-vertex "not yet converged" flags. For Static/ND engines this is
  /// initialized to 1 everywhere; for DT/DF engines the marking phase
  /// sets it for affected vertices only.
  AtomicU8Vector& notConverged;
  /// When set, only vertices with affected[v] != 0 are processed.
  AtomicU8Vector* affected = nullptr;
  /// Dynamic Frontier expansion: mark out-neighbours affected when a
  /// vertex's rank moves by more than tau_f, and also not converged when
  /// it moves by more than tau (DF-BB's rule).
  bool expandFrontier = false;
  /// Optional per-chunk converged flags (DF-LF ablation, Section 4.3):
  /// index = vertex / chunkSize; when present, convergence is detected by
  /// scanning these instead of notConverged.
  AtomicU8Vector* chunkFlags = nullptr;
  /// One chunk pool per round; a fast thread may work rounds ahead of a
  /// slow one.
  RoundCursorSet& rounds;
  std::atomic<bool>& allConverged;
  std::atomic<int>& maxRound;
  /// Worker tid counts into counters[tid], the finish pass into
  /// counters.sequential().
  StepCounterSlots& counters;
  const PageRankOptions& opt;
  FaultInjector* fault = nullptr;
};

/// Body executed by each worker thread (tid) until convergence, crash, or
/// the round cap. Lock-free: no barriers, no locks, progress guaranteed
/// for every running thread.
void lfIterateWorker(const LfShared& shared, int tid);

/// Post-join completion pass, run by the engine's caller thread AFTER the
/// team has joined (so there are no concurrent writers left). A worker
/// still in flight when the convergence scan passed may have re-marked a
/// flag on its way out (stale-store rollback or a reverified clear);
/// this pass re-iterates until the flags are genuinely clean, up to the
/// round cap. No-op unless `allConverged` was set: a run that merely hit
/// the round cap — or whose threads all crashed — must stay unconverged
/// rather than be silently finished on one thread. Because the pass can
/// itself be capped, engines must derive their converged result from the
/// flags, not from `allConverged`.
void lfFinishSequential(const LfShared& shared);

}  // namespace lfpr::detail
