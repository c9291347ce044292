#include "pagerank/detail/lf_iterate.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/flags.hpp"

namespace lfpr::detail {

// Termination protocol
// --------------------
// The convergence flags (per-vertex RC in `notConverged`, optionally the
// per-chunk flags) are the only thing standing between the asynchronous
// workers and premature termination with stale ranks frozen into the
// result. The seed implementation lost updates three distinct ways; the
// protocol below closes each of them.
//
//  1. Lost wakeup on clear. A thread observing a small delta cleared
//     RC[v] with a plain store, erasing a concurrent frontier-expansion
//     mark — every flag reads zero and convergedNow() declares
//     convergence while v still has an unpropagated neighbour update.
//     Fix: clear-then-reverify. The clear is an acquire RMW (exchange)
//     followed by a re-pull with the now-visible neighbour ranks; if the
//     rank still moves, the mark is restored. The RMW reads the latest
//     value in the flag's modification order, so a concurrent mark either
//     survives the clear (ordered after it) or was read by it — and all
//     marks are release RMWs (fetchOr), so under C++20 release-sequence
//     rules the acquire clear synchronizes with every marking thread
//     earlier in the modification order and the re-pull observes the rank
//     write that motivated the mark.
//
//  2. Stale-store rollback. A thread preempted between pulling a rank and
//     storing it resumes arbitrarily later and rolls the vertex back to a
//     stale value, while measuring its delta against its own equally
//     stale earlier read — the rollback is invisible and survives into
//     the result. Fix: ranks are published with an RMW exchange and the
//     delta is taken against the value actually overwritten, so a
//     destructive store observes a large jump and re-marks the vertex.
//
//  3. Post-scan dirt. A convergence scan can pass while an in-flight
//     update from (1) or (2) is about to re-mark a flag; the workers then
//     exit with a flag set. Fix: after the team joins (no concurrent
//     writers remain), the engine calls lfFinishSequential(), which
//     re-iterates until the flags are genuinely clean — see the gating
//     note on its declaration.
//
// A vertex whose delta exceeds tau also re-asserts its own flag (not just
// `anyUnconverged`): if the flag was cleared on a stale read in an
// earlier round, the late mover would otherwise stay invisible to the
// convergence scan forever.
//
// RMW diet (PR 2). Three accesses were relaxed; none is load-bearing for
// the protocol above, whose four invariants — marks are release RMWs,
// clears are acquire RMWs followed by reverify, deltas are measured
// against the value the exchange actually overwrote, and the post-join
// finish pass absorbs in-flight re-marks — all still hold:
//
//  a. expandFrontier stores `affected` only when it reads 0. The affected
//     bitmap is monotone within a run and tested only against zero; the
//     rank publish is carried by the unconditional notConverged /
//     chunkFlags release marks, never by the affected store.
//  b. The clear-then-reverify re-pull is skipped when the acquire
//     exchange returns 0 (a concurrent clearer already erased the mark
//     and owns the reverify for it). Only a clear that destroys a mark
//     needs a re-pull.
//  c. Convergence scans (AtomicU8Vector::allZeroFrom / countNonZero) read
//     eight flags per 64-bit relaxed load. The scans were always relaxed
//     reads with no ordering role — the authoritative detection remains
//     the flags themselves plus the post-join finish pass — so widening
//     the load changes bandwidth, not semantics.
//
// Worklist scheduling + publish diet (PR 5, opt-in via
// SchedulingMode::Worklist). The dense scheduler above costs O(|V|) per
// iteration even when a batch dirties a handful of vertices; the
// worklist (sched/work_ring.hpp) makes an iteration cost O(frontier +
// touched edges): every mark also enqueues the vertex onto its owner
// thread's dirty ring, and owners drain their rings instead of sweeping.
// On top of it, rank publishes for ring-owned vertices go on a diet: a
// plain relaxed store instead of the RMW exchange. The four termination
// invariants are preserved verbatim — here is where each now lives:
//
//  1. Marks are release RMWs; clears are acquire RMWs followed by a
//     reverify re-pull. UNCHANGED — the flag protocol is untouched; the
//     ring is an accelerator layered on top, never the authority. The
//     protocol-bearing acquire/release ordering sits exactly at the ring
//     hand-off points: the release fetchOr mark (+ the ring cell's
//     epoch-validated release publish) on the producer side, the acquire
//     epoch load on pop and the acquire exchange clear on the consumer
//     side. A marker that loses the enqueue race (stale `queued` read,
//     full ring) still wins through the flag: the owner's
//     clear-then-reverify or its reconcile sweep observes the mark.
//
//  2. Stale-store rollback. The exchange publish exists to let a late
//     publisher detect that it overwrote a fresher rank. Under the diet,
//     each vertex has AT MOST ONE plain-store publisher — the owner of
//     its ring partition — so the owner's program order rules out its
//     own rollback, and its pre-store relaxed load *is* the value being
//     overwritten. Every other publisher (the dense-phase sweeps, the
//     orphan-recovery sweeps, lfFinishSequential) still publishes
//     through the exchange and self-detects its rollbacks, so a stale
//     exchange over an owner's store re-marks the vertex and the owner
//     recomputes it. The diet is disabled entirely under fault injection
//     (a crashed owner's partition must be publishable by survivors), so
//     "one plain-store publisher per vertex" holds by construction.
//
//  3. Post-scan dirt. UNCHANGED — allConverged is only set after a full
//     flag scan, and lfFinishSequential runs after the join exactly as
//     before. Ring entries enqueued by in-flight workers after the scan
//     are absorbed the same way: their marks set flags, and the finish
//     pass iterates on flags, not rings.
//
//  4. A vertex whose delta exceeds tau re-asserts its own flag — and,
//     under worklist scheduling, re-enqueues itself (deduplicated), so a
//     late mover re-enters its owner's ring rather than waiting for a
//     sweep.
//
// The ring itself can lose at most *scheduling* information, never
// protocol information: the owner reconciles its partition against the
// flags whenever its ring runs dry and before the global convergence
// scan, so a flags-only vertex is found there, and convergence is still
// decided by flagsAllZeroFrom over the per-vertex flags (chunkFlags are
// not used in worklist mode — engines do not allocate them).

namespace {

/// Loop-exit test shared by every scheduling loop: global convergence or
/// a cooperative stop request (common.hpp stopSeen). Both end the solve
/// at the next chunk/round boundary.
bool exitLoops(const LfShared& s) noexcept {
  return s.allConverged.load(std::memory_order_relaxed) || stopSeen(s.opt);
}

// Always RMW, never "skip because it already reads 1": a marker that
// skips the fetchOr is absent from the flag's modification order, so a
// concurrent acquire clear would synchronize only with the OLD marker
// and could miss this marker's rank publish (its relaxed store can sit
// unflushed past the relaxed flag load — StoreLoad reordering). The
// shared primitive in flags.hpp enforces this and the vertex-before-
// chunk order.
void markUnconverged(const LfShared& s, VertexId w) {
  markVertexUnconverged(s.notConverged, s.chunkFlags, s.opt.chunkSize, w,
                        s.worklist);
}

/// Count `marks` markUnconverged calls: one flag RMW each, two under the
/// per-chunk ablation. Out-list loops count once after the loop, which
/// keeps the counter's load-add-store off the per-edge path.
void countMarks(const LfShared& s, StepCounters& cnt, std::size_t marks) {
  cnt.flagRmws += s.chunkFlags != nullptr ? 2 * marks : marks;
}

/// Dynamic Frontier expansion: v's rank moved by more than tau_f, so its
/// out-neighbours become affected and unconverged. The caller has already
/// published v's new rank, so the release marks carry it (part 1 above).
///
void expandFrontier(const LfShared& s, StepCounters& cnt, VertexId v) {
  const auto out = s.graph.out(v);
  for (VertexId w : out) {
    markAffected(*s.affected, w);
    markUnconverged(s, w);
  }
  countMarks(s, cnt, out.size());
}

/// Worklist wakeup for the non-DF engines: v's rank moved enough that its
/// out-neighbours must be re-pulled, but — unlike expandFrontier — the
/// affected set is left alone (Static/ND have none; DT's is closed under
/// reachability, so every out-neighbour of an affected vertex is already
/// in it). The dense scheduler needs no such propagation because it
/// re-pulls every (affected) vertex each sweep; the worklist only
/// re-pulls what is marked, so the marks themselves must carry the
/// dependency wakeups.
void propagateUnconverged(const LfShared& s, StepCounters& cnt, VertexId v) {
  const auto out = s.graph.out(v);
  for (VertexId w : out) markUnconverged(s, w);
  countMarks(s, cnt, out.size());
}

/// Out-neighbour wakeup after publishing v with delta dr: DF expansion
/// when enabled, plain worklist propagation otherwise. Shares the
/// frontier tolerance — the same "a change this small no longer matters
/// downstream" threshold the DF error analysis rests on (Section 4.5).
void wakeNeighbours(const LfShared& s, StepCounters& cnt, VertexId v,
                    double dr, double tauF) {
  if (dr <= tauF) return;
  if (s.expandFrontier)
    expandFrontier(s, cnt, v);
  else if (s.worklist != nullptr)
    propagateUnconverged(s, cnt, v);
}

/// Pull-update vertex v once and maintain its convergence flags per the
/// protocol above.
void updateVertex(const LfShared& s, StepCounters& cnt, VertexId v,
                  double alpha, double base, bool& anyUnconverged) {
  const double tau = s.opt.tolerance;
  const double tauF = s.opt.frontierTolerance;

  const double r = pullRank(s.graph, s.ranks, v, alpha, base);
  const double dr = std::fabs(r - s.ranks.exchange(v, r));
  ++cnt.rankUpdates;

  wakeNeighbours(s, cnt, v, dr, tauF);

  if (dr > tau) {
    anyUnconverged = true;
    markUnconverged(s, v);
    countMarks(s, cnt, 1);
  } else if (s.notConverged.load(v) == 1) {
    // Clear-then-reverify (part 1), entered only when this pull's delta is
    // already within tau. The acquire exchange makes every rank write
    // published by a mark it overwrites visible to the re-pull; if the
    // rank still moves, the clear was premature and the mark is restored.
    // The re-pull runs only when the exchange actually erased a mark
    // (returned 1): a 0 -> 0 exchange means a concurrent clearer got there
    // between our load and our RMW — reverify duty travelled with ITS
    // clear, and any mark after that clear would have made our exchange
    // return 1.
    ++cnt.flagRmws;
    if (s.notConverged.exchange(v, 0, std::memory_order_acquire) != 0) {
      const double r2 = pullRank(s.graph, s.ranks, v, alpha, base);
      const double dr2 = std::fabs(r2 - s.ranks.exchange(v, r2));
      ++cnt.rankUpdates;
      ++cnt.rePulls;
      wakeNeighbours(s, cnt, v, dr2, tauF);
      if (dr2 > tau) {
        anyUnconverged = true;
        markUnconverged(s, v);
        countMarks(s, cnt, 1);
      }
    }
  }
}

/// Worklist publish diet: the single-plain-store-publisher variant of
/// updateVertex, valid only for the vertex's ring owner with fault
/// injection off (invariant 2 in the worklist note above). The flag
/// handling — release marks, acquire clear-then-reverify — is identical;
/// only the rank publish is a plain relaxed store whose pre-load is the
/// value actually overwritten.
void updateOwnedVertexDiet(const LfShared& s, StepCounters& cnt, VertexId v,
                           double alpha, double base) {
  const double tau = s.opt.tolerance;
  const double tauF = s.opt.frontierTolerance;

  const double r = pullRank(s.graph, s.ranks, v, alpha, base);
  const double dr = std::fabs(r - s.ranks.load(v));
  s.ranks.store(v, r);
  ++cnt.rankUpdates;

  wakeNeighbours(s, cnt, v, dr, tauF);

  if (dr > tau) {
    markUnconverged(s, v);
    countMarks(s, cnt, 1);
  } else if (s.notConverged.load(v) == 1) {
    ++cnt.flagRmws;
    if (s.notConverged.exchange(v, 0, std::memory_order_acquire) != 0) {
      const double r2 = pullRank(s.graph, s.ranks, v, alpha, base);
      const double dr2 = std::fabs(r2 - s.ranks.load(v));
      s.ranks.store(v, r2);
      ++cnt.rankUpdates;
      ++cnt.rePulls;
      wakeNeighbours(s, cnt, v, dr2, tauF);
      if (dr2 > tau) {
        markUnconverged(s, v);
        countMarks(s, cnt, 1);
      }
    }
  }
}

/// Process vertices [begin, end); returns false if this thread crashed.
bool processRange(const LfShared& s, StepCounters& cnt, int tid,
                  std::size_t begin, std::size_t end, bool& anyUnconverged) {
  const double alpha = s.opt.alpha;
  const double base =
      (1.0 - alpha) / static_cast<double>(s.graph.numVertices());

  for (std::size_t i = begin; i < end; ++i) {
    const auto v = static_cast<VertexId>(i);
    if (s.affected != nullptr && s.affected->load(v) == 0) continue;
    updateVertex(s, cnt, v, alpha, base, anyUnconverged);
    if (s.fault != nullptr && !s.fault->onVertexProcessed(tid)) return false;
  }
  return true;
}

/// Clear chunk flag c, then re-derive it from the per-vertex flags. Same
/// protocol as the per-vertex clear: the acquire exchange synchronizes
/// with any release mark it overwrites, so the rescan observes the
/// per-vertex flag that marker set first (markUnconverged orders the
/// vertex flag before the chunk flag).
void clearChunkFlagAndReverify(const LfShared& s, StepCounters& cnt,
                               std::size_t c) {
  if (s.chunkFlags->load(c) == 0) return;
  ++cnt.flagRmws;
  s.chunkFlags->exchange(c, 0, std::memory_order_acquire);
  const std::size_t n = s.graph.numVertices();
  const std::size_t b = c * s.opt.chunkSize;
  const std::size_t e = std::min(b + s.opt.chunkSize, n);
  for (std::size_t w = b; w < e; ++w) {
    if (s.notConverged.load(w) != 0) {
      s.chunkFlags->fetchOr(c, 1, std::memory_order_release);
      return;
    }
  }
}

bool flagsAllZeroFrom(const LfShared& s, std::size_t& scanHint) {
  return s.chunkFlags != nullptr ? s.chunkFlags->allZeroFrom(scanHint)
                                 : s.notConverged.allZeroFrom(scanHint);
}

/// Process one worklist vertex: the diet path when this thread may
/// plain-store-publish it (it owns the vertex and no fault injector is
/// active), the full exchange protocol otherwise.
void processWorklistVertex(const LfShared& s, StepCounters& cnt, VertexId v,
                           bool diet, double alpha, double base) {
  if (diet) {
    updateOwnedVertexDiet(s, cnt, v, alpha, base);
  } else {
    bool anyUnconverged = false;
    updateVertex(s, cnt, v, alpha, base, anyUnconverged);
  }
}

/// Worker body for SchedulingMode::Worklist. Round structure:
///
///   dense phase (Static/ND)   chunked full-protocol sweeps through the
///                             shared pool until the dirty set is sparse
///                             (WorklistScheduler::sparse); the marks
///                             seed the rings along the way. DT/DF start
///                             sparse — the marking phase seeds them.
///   sparse rounds             drain the own ring (diet publishes), then
///                             — once the ring runs dry — reconcile the
///                             owned partition against the flags via the
///                             word-wide scan (catches lost enqueues;
///                             the flags are the authority).
///   quiescent                 global flag scan; sets allConverged when
///                             clean. Dirt elsewhere belongs to a peer:
///                             if the global progress counter advances
///                             across a yield its owner is alive, so
///                             wait (competing with a healthy owner
///                             sustains churn — see noteProgress).
///                             Orphaned dirt (owner crashed, capped out
///                             or exited) is taken over: steal its ring
///                             entries, then run a recovery sweep
///                             through the shared chunk pool — disjoint
///                             chunks keep concurrent helpers from
///                             fighting over one vertex — all with the
///                             full exchange protocol, which mixes
///                             safely with owner diet stores (invariant
///                             2 in the worklist note above). This is
///                             what completes a crashed owner's
///                             partition under fault injection.
///
/// Waiting on an active peer costs no round budget — a fast thread must
/// not exhaust maxIterations while a slow peer can still hand it work —
/// but is bounded (idleRounds) so a capped-out peer cannot strand it.
/// The flags keep any early exit honest.
void lfWorklistWorker(const LfShared& s, int tid) {
  WorklistScheduler& wl = *s.worklist;
  const std::size_t n = s.graph.numVertices();
  const double alpha = s.opt.alpha;
  const double base = (1.0 - alpha) / static_cast<double>(n);
  const bool diet = s.fault == nullptr;
  const int maxRounds = s.opt.maxIterations;
  const std::size_t oBegin = wl.ownedBegin(tid);
  const std::size_t oEnd = wl.ownedEnd(tid);
  // Per-round work cap, chosen for sweep-equivalence with the dense
  // scheduler (where one round lets a thread process up to n vertices),
  // so maxIterations bounds the same total work in both modes.
  const std::size_t budget = std::max<std::size_t>(n, 1);
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;

  int round = 0;
  // Dense phase (Static/ND all-dirty starts): sweep through the shared
  // chunk pool with the full publish protocol, exactly like the dense
  // scheduler, until the frontier is sparse enough for the rings to win
  // (see WorklistScheduler::sparse). The marks made here seed the rings.
  while (round < maxRounds && !wl.sparse()) {
    if (exitLoops(s)) break;
    std::size_t begin = 0, end = 0;
    while (!exitLoops(s) &&
           s.rounds.next(static_cast<std::size_t>(round), begin, end)) {
      bool anyUnconverged = false;
      if (!processRange(s, cnt, tid, begin, end, anyUnconverged))
        return;  // crashed
      wl.noteProgress(end - begin);
    }
    ++round;
    atomicMaxInt(s.maxRound, round);
    if (flagsAllZeroFrom(s, scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      break;
    }
    // One observer is enough for the one-way sparse flip; T redundant
    // O(|V|/8) scans per round would just burn bandwidth. If thread 0
    // crashes (fault injection only) the solve simply stays dense —
    // that is the dense scheduler's semantics, still correct.
    if (tid == 0) wl.observeDensity(s.notConverged.countNonZero());
  }

  int idleRounds = 0;
  while (round < maxRounds) {
    if (exitLoops(s)) break;

    // Drain the own ring, at most `budget` entries per round so
    // `iterations` keeps its sweeps-equivalent meaning and maxIterations
    // stays a work cap.
    std::size_t pops = 0;
    VertexId v = 0;
    while (pops < budget && wl.tryPop(tid, v)) {
      ++pops;
      processWorklistVertex(s, cnt, v, diet, alpha, base);
      // Heartbeat every 64 pops, not just at drain end: a drain can run
      // up to `budget` = n pops, and a quiescent peer that samples the
      // counter across a yield without seeing it move would misread this
      // healthy owner as orphaned and start a competing recovery sweep.
      if ((pops & 63u) == 0) wl.noteProgress(64);
      if (s.fault != nullptr && !s.fault->onVertexProcessed(tid))
        return;  // crashed
    }
    if ((pops & 63u) != 0) wl.noteProgress(pops & 63u);
    if (pops >= budget) {
      ++round;
      atomicMaxInt(s.maxRound, round);
      idleRounds = 0;
      continue;
    }

    // Ring dry: reconcile the owned partition against the flags
    // (word-wide scan — one relaxed load per eight flags, so a clean
    // partition costs O(|owned|/8), not a per-vertex sweep).
    bool dirt = false;
    std::size_t i = oBegin;
    while ((i = s.notConverged.firstNonZero(i, oEnd)) < oEnd) {
      dirt = true;
      processWorklistVertex(s, cnt, static_cast<VertexId>(i), diet, alpha,
                            base);
      wl.noteProgress(1);  // same heartbeat rationale as the drain loop
      if (s.fault != nullptr && !s.fault->onVertexProcessed(tid))
        return;  // crashed
      ++i;
    }
    if (dirt || pops > 0) {
      ++round;
      atomicMaxInt(s.maxRound, round);
      idleRounds = 0;
      continue;
    }

    // Personally quiescent: did everyone finish?
    if (flagsAllZeroFrom(s, scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      break;
    }

    // Global dirt remains. If its owner is alive and working, leave it
    // alone — see WorklistScheduler::noteProgress for why competing with
    // a healthy owner can sustain the frontier forever. The yield also
    // hands the CPU to that owner on oversubscribed hosts.
    const std::uint64_t before = wl.progress();
    std::this_thread::yield();
    if (wl.progress() != before) {
      if (++idleRounds > maxRounds) break;  // safety valve; flags stay honest
      continue;  // waiting costs no round budget
    }

    // The dirt is orphaned (its owner crashed, capped out, or exited):
    // take it over. First drain the orphaned rings, then run a recovery
    // sweep through the shared chunk pool — the pool hands concurrent
    // helpers DISJOINT chunks, the same property that keeps the dense
    // scheduler's publishers from fighting over one vertex. Everything
    // here uses the full exchange protocol: helpers are never the single
    // plain-store publisher.
    std::size_t helped = 0;
    while (helped < budget && wl.trySteal(tid, v)) {
      ++helped;
      processWorklistVertex(s, cnt, v, /*diet=*/false, alpha, base);
      wl.noteProgress(1);  // heartbeat: don't look stalled to other helpers
      if (s.fault != nullptr && !s.fault->onVertexProcessed(tid))
        return;  // crashed
    }
    bool swept = false;
    std::size_t begin = 0, end = 0;
    while (!exitLoops(s) &&
           s.rounds.next(static_cast<std::size_t>(round), begin, end)) {
      swept = true;
      bool anyUnconverged = false;
      if (!processRange(s, cnt, tid, begin, end, anyUnconverged))
        return;  // crashed
      wl.noteProgress(end - begin);
    }
    if (helped > 0 || swept) {
      ++round;
      atomicMaxInt(s.maxRound, round);
      idleRounds = 0;
      continue;
    }

    // This round's recovery pool was already drained by a peer helper:
    // advance to the next pool (burning round budget keeps the exit
    // honest — the flags are still the authority).
    ++round;
  }
}

}  // namespace

void lfIterateWorker(const LfShared& s, int tid) {
  if (s.worklist != nullptr) {
    lfWorklistWorker(s, tid);
    return;
  }
  const std::size_t n = s.graph.numVertices();
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;  // resume point for this thread's convergence scans
  const int maxRounds = s.opt.maxIterations;

  // Static-schedule ablation (Eedi et al. style): each thread owns a fixed
  // stripe of the vertex range instead of pulling dynamic chunks.
  std::size_t stripeBegin = 0, stripeEnd = n;
  if (s.opt.staticSchedule) {
    const auto t = static_cast<std::size_t>(tid);
    const auto numThreads = static_cast<std::size_t>(s.opt.numThreads > 0
                                                         ? s.opt.numThreads
                                                         : 1);
    stripeBegin = n * t / numThreads;
    stripeEnd = n * (t + 1) / numThreads;
  }

  for (int round = 0; round < maxRounds; ++round) {
    if (exitLoops(s)) break;

    if (s.opt.staticSchedule) {
      bool anyUnconverged = false;
      if (!processRange(s, cnt, tid, stripeBegin, stripeEnd, anyUnconverged))
        return;  // crashed
      // Chunk-by-chunk clear-then-reverify. The seed's wholesale stripe
      // clear could wipe chunks a concurrent frontier expansion had just
      // re-marked — the chunk-granularity variant of the lost wakeup.
      if (s.chunkFlags != nullptr && !anyUnconverged && stripeEnd > stripeBegin) {
        for (std::size_t c = stripeBegin / s.opt.chunkSize;
             c <= (stripeEnd - 1) / s.opt.chunkSize; ++c)
          clearChunkFlagAndReverify(s, cnt, c);
      }
    } else {
      std::size_t begin = 0, end = 0;
      while (!exitLoops(s) &&
             s.rounds.next(static_cast<std::size_t>(round), begin, end)) {
        bool anyUnconverged = false;
        if (!processRange(s, cnt, tid, begin, end, anyUnconverged))
          return;  // crashed
        if (s.chunkFlags != nullptr && !anyUnconverged)
          clearChunkFlagAndReverify(s, cnt, begin / s.opt.chunkSize);
      }
    }

    atomicMaxInt(s.maxRound, round + 1);
    if (flagsAllZeroFrom(s, scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      break;
    }
  }
}

void lfFinishSequential(const LfShared& s) {
  // Only repair runs whose convergence scan actually passed: a run that
  // merely hit the round cap — or whose threads all crashed — must stay
  // unconverged (dirty flags) rather than be silently finished here.
  if (!s.allConverged.load(std::memory_order_relaxed)) return;

  const std::size_t n = s.graph.numVertices();
  const double alpha = s.opt.alpha;
  const double base = (1.0 - alpha) / static_cast<double>(n);
  StepCounters& cnt = s.counters.sequential();
  std::size_t scanHint = 0;

  // The pass spends what is left of the run's iteration budget (usually
  // plenty: the scan passed well before the cap; typically 0-2 sweeps are
  // needed) and accounts its sweeps in maxRound, so iterations and
  // rankUpdates stay consistent and maxIterations remains a hard cap on
  // total sweeps.
  const int budget =
      std::max(0, s.opt.maxIterations - s.maxRound.load(std::memory_order_relaxed));
  int roundsDone = 0;
  for (int round = 0; round < budget; ++round) {
    // A stop request ends the finish pass too; dirty flags then keep the
    // result honestly unconverged.
    if (stopSeen(s.opt)) break;
    if (flagsAllZeroFrom(s, scanHint)) break;
    bool anyUnconverged = false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<VertexId>(i);
      if (s.affected != nullptr && s.affected->load(v) == 0) continue;
      updateVertex(s, cnt, v, alpha, base, anyUnconverged);
    }
    if (s.chunkFlags != nullptr && !anyUnconverged) {
      const std::size_t numChunks = (n + s.opt.chunkSize - 1) / s.opt.chunkSize;
      for (std::size_t c = 0; c < numChunks; ++c)
        clearChunkFlagAndReverify(s, cnt, c);
    }
    ++roundsDone;
  }
  if (roundsDone > 0)
    s.maxRound.fetch_add(roundsDone, std::memory_order_relaxed);
}

}  // namespace lfpr::detail
