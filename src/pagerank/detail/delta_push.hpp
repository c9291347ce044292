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
// neighbour's residual across the activation threshold enters it onto
// its owner's work ring (WorklistScheduler::enqueue, sched/work_ring.hpp).
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
#include <cstdint>
#include <memory>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/detail/step_counters.hpp"
#include "pagerank/options.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/fault.hpp"
#include "sched/work_ring.hpp"

namespace lfpr::detail {

/// Exact exit rule for a healthy delta-push team. Healthy mode has no
/// takeover (see delta_push.cpp): only a partition's owner drains it, so
/// an owner whose partition is clean may leave only once no peer can push
/// into it any more. Each worker is busy, asleep or gone, and `busy`
/// counts the busy ones. A worker falls asleep only with a clean
/// partition; a drain whose activation lands in a sleeping worker's
/// partition wakes that worker — counting it busy again — before the
/// drainer itself can sleep. So the count reaches 0 only when no drain
/// runs and no activation is pending, and from then on it stays 0: every
/// worker may leave. A capped-out owner leaves as gone and is never
/// woken; its dirt keeps its flags set and the run exits honestly
/// unconverged.
class TeamQuiescence {
 public:
  explicit TeamQuiescence(int numWorkers);

  /// Called by a busy drainer after it marked a vertex of `worker`'s
  /// partition: counts `worker` busy again if it was asleep.
  void wake(int worker) noexcept;
  /// Fall asleep unless [begin, end) of `flags` — the caller's partition —
  /// is dirty. Returns whether the caller is now asleep.
  bool trySleep(int self, const AtomicU8Vector& flags, std::size_t begin,
                std::size_t end) noexcept;
  /// A peer woke this sleeping worker (it is counted busy again).
  [[nodiscard]] bool woken(int self) const noexcept;
  /// Every worker is asleep or gone; nothing will wake anyone.
  [[nodiscard]] bool quiet() const noexcept;
  /// The caller leaves the team for good.
  void leave(int self) noexcept;

 private:
  static constexpr std::uint8_t kBusy = 0, kAsleep = 1, kGone = 2;
  struct alignas(64) Slot {
    std::atomic<std::uint8_t> state{kBusy};
  };
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<int> busy_;
};

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
  std::atomic<bool>& allConverged;
  std::atomic<int>& maxRound;
  /// Worker tid counts into counters[tid], the post-join passes into
  /// counters.sequential().
  StepCounterSlots& counters;
  const PageRankOptions& opt;
  FaultInjector* fault = nullptr;
  /// Always present: delta-push is worklist-driven by construction.
  WorklistScheduler& worklist;
  /// Healthy-mode exit rule, one slot per team thread.
  TeamQuiescence& quiescence;
};

/// Phase A worker body (after markAffectedWorker): seed the residuals of
/// affected vertices from a chunk pool, then help-rescan unfinished
/// chunks. Returns false if this thread crashed (fault injection).
bool seedResidualWorker(const DeltaPushShared& s, int tid);

/// Sequential phase A repair, run by the engine's caller after the seed
/// team joined: re-executes any chunk no surviving thread finished
/// (idempotent — ranks are frozen until phase B starts).
void seedResidualRepair(const DeltaPushShared& s);

/// Phase B worker body: drain the own ring / reconcile the owned
/// partition / global scan, with orphan takeover under fault injection
/// and the TeamQuiescence exit rule without it.
void deltaPushWorker(const DeltaPushShared& s, int tid);

/// Post-join completion pass (termination protocol part 3): absorbs
/// flags re-marked by in-flight drains after the convergence scan
/// passed. Gated on allConverged like lfFinishSequential.
void deltaPushFinishSequential(const DeltaPushShared& s);

}  // namespace lfpr::detail
