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
//     set flags, so survivors drain it in later rounds, or the run exits
//     honestly unconverged.
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
// Work discovery (phase B) is the pull engines' chunked sweep
// (lf_iterate.cpp): each round is a RoundCursorSet pool of vertex chunks,
// and a worker drains the flagged vertices of every chunk it takes (a
// word-wide flag scan, so a clean chunk costs one load per eight
// vertices). After each round it scans all flags and sets allConverged
// when they are clean. A crashed thread just stops taking chunks; its
// undrained vertices keep their flags set and the survivors drain them
// in later rounds. There is no ownership, so every rank apply is a
// ranks.fetchAdd: sweeps of adjacent rounds may drain one vertex at the
// same time, but the residual exchange hands the mass to exactly one
// drainer and fetch-add applies commute, so no mass is lost.
#include "pagerank/detail/delta_push.hpp"

#include <algorithm>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/flags.hpp"

namespace lfpr::detail {

namespace {

bool exitLoops(const DeltaPushShared& s) noexcept {
  return s.allConverged.load(std::memory_order_relaxed) || stopSeen(s.opt);
}

/// A fetch-add moved |residual| from at or below `threshold` to above
/// it (protocol part 2).
bool crossedThreshold(double before, double after, double threshold) noexcept {
  return !(before > threshold) && !(before < -threshold) &&
         (after > threshold || after < -threshold);
}

/// Release-mark v unconverged (flags.hpp), counted as one activation.
void activateVertex(const DeltaPushShared& s, StepCounters& cnt,
                    std::size_t v) {
  markVertexUnconverged(s.notConverged, nullptr, 0, v);
  ++cnt.flagRmws;
  ++cnt.activations;
}

/// Drain one vertex: take its residual if above threshold, fetch-add it
/// to the rank, push the scaled mass to the out-neighbours, then
/// clear-then-reverify the RC flag against the post-drain residual.
void drainVertex(const DeltaPushShared& s, StepCounters& cnt, std::size_t v) {
  const double thr = s.opt.tolerance;
  double res = s.residual.load(v);
  if (res > thr || res < -thr) {
    const double d = s.residual.exchange(v, 0.0);
    if (d != 0.0) {
      s.ranks.fetchAdd(v, d);
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
          if (crossedThreshold(before, before + w, thr))
            activateVertex(s, cnt, u);
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
        if (res > thr || res < -thr) activateVertex(s, cnt, v);
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
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;  // resume point for this thread's convergence scans
  // One round is one sweep over all n vertices, the work of one dense
  // pull round, so maxIterations caps the push and pull engines alike.
  for (int round = 0; round < s.opt.maxIterations; ++round) {
    if (exitLoops(s)) break;
    std::size_t begin = 0, end = 0;
    while (!exitLoops(s) &&
           s.rounds.next(static_cast<std::size_t>(round), begin, end)) {
      std::size_t i = begin;
      while ((i = s.notConverged.firstNonZero(i, end)) < end) {
        drainVertex(s, cnt, i);
        if (s.fault != nullptr && !s.fault->onVertexProcessed(tid))
          return;  // crashed
        ++i;
      }
    }
    atomicMaxInt(s.maxRound, round + 1);
    if (s.notConverged.allZeroFrom(scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      break;
    }
  }
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
      drainVertex(s, cnt, i);
      ++i;
    }
    ++roundsDone;
  }
  if (roundsDone > 0)
    s.maxRound.fetch_add(roundsDone, std::memory_order_relaxed);
}

}  // namespace lfpr::detail
