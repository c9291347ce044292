// Delta-push residual iteration — how the PR 1 termination protocol maps
// onto residual mass instead of re-pulled ranks.
//
// Invariant. Between any two atomic operations the pair (ranks, residual)
// satisfies  rank* = ranks + (I - alpha*P^T)^{-1} residual  for the true
// fixpoint rank*: draining a vertex moves its residual into its rank and
// forward-pushes `alpha * d * invOutDeg` to each out-neighbour, which
// preserves the identity exactly; a fetch-add can never lose mass. When
// every parked |residual[v]| is at or below the activation threshold
// tau (opt.tolerance), the error is bounded by tau / (1 - alpha) — the
// same asyncToleranceBound certificate the pull engines report.
//
// The four protocol parts (lf_iterate.cpp) translate as follows:
//
//  1. Clear-then-reverify. A drainer clears a vertex's RC flag only
//     through an acquire RMW exchange and then re-reads the *residual*:
//     a concurrent pusher whose fetch-add crossed the threshold marks the
//     flag with a release RMW (flags.hpp) after the add, so the acquire
//     exchange that observes the mark also observes the added mass, and
//     the reverify re-activates. A crossing can therefore never be lost.
//  2. Crossing-only marks. A pusher activates a neighbour only when its
//     add moved |residual| across tau (crossedThreshold on the fetch-add
//     before-value). Adds that land below tau park their mass — that is
//     the tolerated error above; adds on an already-above residual need
//     no mark because the crossing that got it there marked the vertex
//     and any clear in between reverified against the current value.
//  3. Post-scan dirt. The convergence scan can pass while a drain is
//     in flight; its crossings re-mark flags afterwards. The sequential
//     finish pass (deltaPushFinishSequential) absorbs them after the
//     join, gated on allConverged exactly like lfFinishSequential.
//  4. Flags authority. Termination is decided by the RC flags alone —
//     residuals never vote. A crashed thread's undrained mass sits behind
//     set flags, so the run exits honestly unconverged (or is completed
//     by takeover under fault injection).
//
// Seeding (phase A) runs on FROZEN ranks: residual[v] is *stored* (not
// added) as pull_new(v) - rank[v] at each DF-marked vertex, which makes
// the seed idempotent — the marking phase's helping idiom carries over
// unchanged (per-chunk seedDone flags, re-execute instead of wait), and a
// crashed seeder's chunks are replayed by survivors or by the sequential
// repair after the join. Only after every seed chunk is done (real join
// between the two team.run calls — crashed threads return early, so the
// join cannot hang) does phase B start moving ranks.
//
// Publish diet. A healthy solve (fault == nullptr) has NO takeover path
// at all: owners drain only their own partition and quiescent peers
// only wait, so the owner is the partition's unique rank writer and
// applies drains with plain load+store. Because nobody else drains a
// partition, its owner must not leave while a peer can still push into
// it: TeamQuiescence (delta_push.hpp) decides that exactly. Under fault
// injection every apply is a ranks.fetchAdd and the takeover paths
// (ring steal + flag recovery sweep) switch on: unlike the pull engines'
// exchange — which observes the value it overwrites and can re-mark — a
// lost concurrent add is lost *mass* that nothing recomputes, so diet
// and takeover are never combined. Concurrent drains of one vertex stay
// safe in fault mode: the residual exchange hands the mass to exactly
// one drainer and fetch-add applies commute.
#include "pagerank/detail/delta_push.hpp"

#include <algorithm>
#include <thread>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/flags.hpp"

namespace lfpr::detail {

namespace {

bool exitLoops(const DeltaPushShared& s) noexcept {
  return s.allConverged.load(std::memory_order_relaxed) || stopSeen(s.opt);
}

/// Release-mark + ring entry, in the flags.hpp order (flag RMW strictly
/// before the enqueue, so the mark survives a lost enqueue). A healthy
/// team drainer (`tid` >= 0) then wakes the vertex's owner, after the
/// mark, so a woken owner sees it.
void activateVertex(const DeltaPushShared& s, StepCounters& cnt, std::size_t v,
                    int tid) {
  markVertexUnconverged(s.notConverged, nullptr, 0, v, &s.worklist);
  ++cnt.flagRmws;
  ++cnt.activations;
  if (tid >= 0 && s.fault == nullptr) {
    const int owner = s.worklist.owner(v);
    if (owner != tid) s.quiescence.wake(owner);
  }
}

/// Drain one vertex: take its residual if above threshold, apply it to
/// the rank (plain store when `diet`, fetch-add otherwise), push the
/// scaled mass to the out-neighbours, then clear-then-reverify the RC
/// flag against the post-drain residual. `tid` is the draining team
/// thread, or -1 after the join.
void drainVertex(const DeltaPushShared& s, StepCounters& cnt, std::size_t v,
                 int tid, bool diet) {
  const double thr = s.opt.tolerance;
  double res = s.residual.load(v);
  if (res > thr || res < -thr) {
    const double d = s.residual.exchange(v, 0.0);
    if (d != 0.0) {
      if (diet) {
        // Unique-writer apply (see the publish-diet note above).
        s.ranks.store(v, s.ranks.load(v) + d);
      } else {
        s.ranks.fetchAdd(v, d);
      }
      ++cnt.rankUpdates;
      const double w =
          s.opt.alpha * d * s.graph.invOutDegree(static_cast<VertexId>(v));
      if (w != 0.0) {
        const auto out = s.graph.out(static_cast<VertexId>(v));
        for (const VertexId u : out) {
          const double before = s.residual.fetchAdd(u, w);
          // markAffected keeps result.affectedVertices meaningful for
          // push solves: everything whose residual ever moved.
          markAffected(s.affected, u);
          if (WorklistScheduler::crossedThreshold(before, before + w, thr))
            activateVertex(s, cnt, u, tid);
        }
        cnt.residualPushes += out.size();
      }
    }
  }
  // Clear-then-reverify (protocol part 1): clear the flag only when the
  // parked residual is at or below threshold, through an acquire RMW, and
  // re-read the residual afterwards — the acquire synchronizes with any
  // crossing's release mark, so the reverify sees its mass and restores
  // the mark. The reverify is residual-only: phase B never pulls.
  if (s.notConverged.load(v) != 0) {
    res = s.residual.load(v);
    if (!(res > thr) && !(res < -thr)) {
      ++cnt.flagRmws;
      if (s.notConverged.exchange(v, 0, std::memory_order_acquire) != 0) {
        res = s.residual.load(v);
        if (res > thr || res < -thr) activateVertex(s, cnt, v, tid);
      }
    }
  }
}

/// Seed the residuals of the affected vertices in [begin, end): one pull
/// against the FROZEN ranks per marked vertex, *stored* so re-execution
/// by helpers or the sequential repair is idempotent. Returns false if
/// this thread crashed (tid >= 0; the sequential repair passes -1 and
/// never observes faults — the team has already joined).
bool seedChunk(const DeltaPushShared& s, StepCounters& cnt, std::size_t begin,
               std::size_t end, int tid) {
  const double alpha = s.opt.alpha;
  const double base =
      (1.0 - alpha) / static_cast<double>(s.graph.numVertices());
  std::size_t i = begin;
  while ((i = s.affected.firstNonZero(i, end)) < end) {
    const auto v = static_cast<VertexId>(i);
    const double target = pullRank(s.graph, s.ranks, v, alpha, base);
    s.residual.store(i, target - s.ranks.load(i));
    ++cnt.rePulls;
    if (tid >= 0 && s.fault != nullptr && !s.fault->onVertexProcessed(tid))
      return false;  // crashed; seedDone for this chunk stays 0
    ++i;
  }
  return true;
}

}  // namespace

TeamQuiescence::TeamQuiescence(int numWorkers)
    : slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(numWorkers))),
      busy_(numWorkers) {}

// Every access that decides a sleep or a wake is an RMW on the
// sleeper's state, so these accesses are totally ordered (the same
// release-sequence argument as the flags in atomics.hpp): if a waker's
// RMW comes first, the sleeper's later RMW synchronizes with it and its
// scan sees the mark made before; if the sleeper's comes first, the
// waker reads asleep and wakes it.
void TeamQuiescence::wake(int worker) noexcept {
  auto& state = slots_[static_cast<std::size_t>(worker)].state;
  if (state.fetch_or(0, std::memory_order_acq_rel) != kAsleep) return;
  // Count the sleeper before it can see the wake: once woken it may
  // drain and sleep again at once, and its decrement must not take the
  // count to 0 under a peer that is still busy. The waker is itself
  // busy, so undoing a lost race never shows a false 0 either.
  busy_.fetch_add(1, std::memory_order_acq_rel);
  std::uint8_t expected = kAsleep;
  if (!state.compare_exchange_strong(expected, kBusy, std::memory_order_acq_rel))
    busy_.fetch_sub(1, std::memory_order_acq_rel);
}

bool TeamQuiescence::trySleep(int self, const AtomicU8Vector& flags,
                              std::size_t begin, std::size_t end) noexcept {
  // Only a waker's CAS moves the state out of asleep, so nobody changes
  // it while this worker is busy.
  auto& state = slots_[static_cast<std::size_t>(self)].state;
  state.exchange(kAsleep, std::memory_order_acq_rel);
  if (flags.firstNonZero(begin, end) >= end) {
    // Counted busy until here, so the count never reaches 0 while this
    // partition is dirty. A wake since the exchange counted us again.
    busy_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  // Dirty after all: stay busy. A waker that got in first counted us a
  // second time.
  std::uint8_t expected = kAsleep;
  if (!state.compare_exchange_strong(expected, kBusy, std::memory_order_acq_rel))
    busy_.fetch_sub(1, std::memory_order_acq_rel);
  return false;
}

bool TeamQuiescence::woken(int self) const noexcept {
  return slots_[static_cast<std::size_t>(self)].state.load(std::memory_order_acquire) ==
         kBusy;
}

bool TeamQuiescence::quiet() const noexcept {
  return busy_.load(std::memory_order_acquire) == 0;
}

void TeamQuiescence::leave(int self) noexcept {
  if (slots_[static_cast<std::size_t>(self)].state.exchange(
          kGone, std::memory_order_acq_rel) == kBusy)
    busy_.fetch_sub(1, std::memory_order_acq_rel);
}

bool seedResidualWorker(const DeltaPushShared& s, int tid) {
  const std::size_t n = s.graph.numVertices();
  const std::size_t chunkSize = s.seedCursor.chunkSize();
  StepCounters& cnt = s.counters[tid];
  // First pass: drain the shared chunk pool.
  std::size_t begin = 0, end = 0;
  while (s.seedCursor.next(begin, end)) {
    if (stopSeen(s.opt)) return true;  // abort early; flags keep the run honest
    if (!seedChunk(s, cnt, begin, end, tid)) return false;
    s.seedDone.store(begin / chunkSize, 1, std::memory_order_release);
  }
  // Helping rescan (the marking phase's idiom): re-execute any chunk
  // whose seedDone flag is still 0 — a crashed or delayed seeder must
  // never block phase B. Stores of identical values make replay safe.
  for (std::size_t c = 0; c < s.seedDone.size(); ++c) {
    if (s.seedDone.load(c, std::memory_order_acquire) != 0) continue;
    if (stopSeen(s.opt)) return true;
    const std::size_t b = c * chunkSize;
    const std::size_t e = std::min(b + chunkSize, n);
    if (!seedChunk(s, cnt, b, e, tid)) return false;
    s.seedDone.store(c, 1, std::memory_order_release);
  }
  return true;
}

void seedResidualRepair(const DeltaPushShared& s) {
  // Runs on the engine thread after the phase A join: every thread may
  // have crashed mid-chunk, so replay whatever is still undone. Ranks
  // have not moved yet, so the stores remain idempotent.
  const std::size_t n = s.graph.numVertices();
  const std::size_t chunkSize = s.seedCursor.chunkSize();
  for (std::size_t c = 0; c < s.seedDone.size(); ++c) {
    if (s.seedDone.load(c, std::memory_order_acquire) != 0) continue;
    if (stopSeen(s.opt)) return;
    const std::size_t b = c * chunkSize;
    seedChunk(s, s.counters.sequential(), b, std::min(b + chunkSize, n),
              /*tid=*/-1);
    s.seedDone.store(c, 1, std::memory_order_release);
  }
}

void deltaPushWorker(const DeltaPushShared& s, int tid) {
  WorklistScheduler& wl = s.worklist;
  const std::size_t n = s.graph.numVertices();
  // Healthy solves run the owner publish diet; fault-injected solves
  // trade it for the takeover paths (see the note at the top).
  const bool diet = s.fault == nullptr;
  const int maxRounds = s.opt.maxIterations;
  const std::size_t oBegin = wl.ownedBegin(tid);
  const std::size_t oEnd = wl.ownedEnd(tid);
  // Sweep-equivalent round cap: one round is at most n drains, the work
  // of one dense pull sweep over all n vertices, so maxIterations bounds
  // comparable total work in the push and pull engines. Short
  // passes (a few pops, a short flag scan) add their drains toward the
  // next round instead of counting a whole round each: on many cores a
  // worker makes thousands of them, and counting each as a round capped
  // healthy solves early, stranding later pushes into the partition.
  const std::size_t budget = std::max<std::size_t>(n, 1);
  std::size_t partial = 0;  // drains of short passes toward the next round
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;

  int round = 0;
  int idleRounds = 0;
  bool asleep = false;  // healthy mode only (TeamQuiescence)
  while (round < maxRounds) {
    if (exitLoops(s)) break;
    if (asleep) {
      // Wait for a peer's push into this partition, or for the whole
      // team to fall asleep, after which no push can come.
      if (s.quiescence.woken(tid)) {
        asleep = false;
      } else if (s.quiescence.quiet()) {
        break;
      } else {
        std::this_thread::yield();
        continue;
      }
    }

    // Drain the own ring (batch-seeded solves start sparse; there is no
    // dense phase — the seed set IS the ring contents).
    std::size_t pops = 0;
    VertexId v = 0;
    while (pops < budget && wl.tryPop(tid, v)) {
      ++pops;
      drainVertex(s, cnt, v, tid, diet);
      // Heartbeat every 64 pops (not just at drain end) so a quiescent
      // peer sampling the counter across a yield never misreads this
      // healthy owner as orphaned.
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
    // (word-wide scan, one relaxed load per eight flags).
    std::size_t dirt = 0;
    std::size_t i = oBegin;
    while ((i = s.notConverged.firstNonZero(i, oEnd)) < oEnd) {
      ++dirt;
      drainVertex(s, cnt, i, tid, diet);
      wl.noteProgress(1);
      if (s.fault != nullptr && !s.fault->onVertexProcessed(tid))
        return;  // crashed
      ++i;
    }
    if (dirt > 0 || pops > 0) {
      partial += dirt + pops;
      if (round == 0 || partial >= budget) {  // any work is at least round 1
        ++round;
        partial = 0;
        atomicMaxInt(s.maxRound, round);
      }
      idleRounds = 0;
      continue;
    }

    // Personally quiescent: did everyone finish?
    if (s.notConverged.allZeroFrom(scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      break;
    }

    if (s.fault == nullptr) {
      // Healthy mode: NO takeover — the publish diet made the owner the
      // partition's unique rank writer, and a drain by a second thread
      // could race the owner's plain store and lose applied mass (which,
      // unlike a pull engine's stale store, nothing recomputes). Sleep
      // until a peer's push wakes this worker or the team goes quiet.
      asleep = s.quiescence.trySleep(tid, s.notConverged, oBegin, oEnd);
      continue;
    }

    // Global dirt remains. If its owner makes progress across a yield it
    // is alive — leave the dirt alone (competing with a healthy owner
    // sustains churn; see WorklistScheduler::noteProgress).
    const std::uint64_t before = wl.progress();
    std::this_thread::yield();
    if (wl.progress() != before) {
      if (++idleRounds > maxRounds) break;  // safety valve; flags stay honest
      continue;  // waiting costs no round budget
    }

    // Fault mode: the dirt is orphaned (owner crashed, capped out or
    // exited) — take it over with full-RMW applies. First the orphaned
    // rings, then a bounded flag sweep across the whole range.
    std::size_t helped = 0;
    while (helped < budget && wl.trySteal(tid, v)) {
      ++helped;
      drainVertex(s, cnt, v, tid, /*diet=*/false);
      wl.noteProgress(1);
      if (!s.fault->onVertexProcessed(tid))
        return;  // crashed
    }
    std::size_t swept = 0;
    i = 0;
    while (swept < budget && (i = s.notConverged.firstNonZero(i, n)) < n) {
      ++swept;
      drainVertex(s, cnt, i, tid, /*diet=*/false);
      wl.noteProgress(1);
      if (!s.fault->onVertexProcessed(tid))
        return;  // crashed
      ++i;
    }
    if (helped > 0 || swept > 0) {
      ++round;
      atomicMaxInt(s.maxRound, round);
      idleRounds = 0;
      continue;
    }
    // Nothing stealable and the flags moved under the sweep: burn round
    // budget so the exit stays honest.
    ++round;
  }
  if (s.fault == nullptr) s.quiescence.leave(tid);
}

void deltaPushFinishSequential(const DeltaPushShared& s) {
  // Only repair runs whose convergence scan actually passed (protocol
  // part 3): a capped or fully-crashed run must stay honestly
  // unconverged rather than be silently finished here.
  if (!s.allConverged.load(std::memory_order_relaxed)) return;

  const std::size_t n = s.graph.numVertices();
  StepCounters& cnt = s.counters.sequential();
  std::size_t scanHint = 0;
  const int budget = std::max(
      0, s.opt.maxIterations - s.maxRound.load(std::memory_order_relaxed));
  int roundsDone = 0;
  for (int round = 0; round < budget; ++round) {
    if (stopSeen(s.opt)) break;
    if (s.notConverged.allZeroFrom(scanHint)) break;
    std::size_t i = 0;
    while ((i = s.notConverged.firstNonZero(i, n)) < n) {
      // Post-join, so the full-RMW apply path is simply unconditional.
      drainVertex(s, cnt, i, /*tid=*/-1, /*diet=*/false);
      ++i;
    }
    ++roundsDone;
  }
  if (roundsDone > 0)
    s.maxRound.fetch_add(roundsDone, std::memory_order_relaxed);
}

}  // namespace lfpr::detail
