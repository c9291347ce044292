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
// RMW diet. Three accesses were relaxed (a-c) and one redundant scan is
// skipped (d); none is load-bearing for the protocol above, whose four invariants — marks are release RMWs,
// clears are acquire RMWs followed by reverify, deltas are measured
// against the value the exchange actually overwrote, and the post-join
// finish pass absorbs in-flight re-marks — all still hold:
//
//  a. expandFrontier stores `affected` only when it reads 0. The affected
//     bitmap is monotone within a run and tested only against zero; the
//     rank publish is carried by the notConverged / chunkFlags release
//     marks (made for every move above tau, never skipped because the
//     flag already reads 1), never by the affected store.
//  b. The clear-then-reverify re-pull is skipped when the acquire
//     exchange returns 0 (a concurrent clearer already erased the mark
//     and owns the reverify for it). Only a clear that destroys a mark
//     needs a re-pull.
//  c. Convergence scans (AtomicU8Vector::allZeroFrom / countNonZero) read
//     eight flags per 64-bit relaxed load. The scans were always relaxed
//     reads with no ordering role — the authoritative detection remains
//     the flags themselves plus the post-join finish pass — so widening
//     the load changes bandwidth, not semantics.
//  d. A vertex's out-neighbours are marked affected once per run: the
//     first expansion sets kFrontierExpanded in the vertex's own affected
//     byte, and later expansions below tau skip the out-list scan, which
//     would only re-read flags that are already set (the graph and the
//     affected set are fixed and monotone within a run). Expansions above
//     tau still walk the list for the release marks. A racing
//     markAffected store can erase the bit; that only costs one more scan.

namespace {

/// Bit in affected[v]: v's out-neighbours are already marked affected in
/// this run (RMW-diet item d).
constexpr std::uint8_t kFrontierExpanded = 2;

/// Loop-exit test of the worker's round and chunk loops: global
/// convergence or a cooperative stop request (common.hpp stopSeen).
/// Both end the solve at the next chunk/round boundary.
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
  markVertexUnconverged(s.notConverged, s.chunkFlags, s.opt.chunkSize, w);
}

/// Count `marks` markUnconverged calls: one flag RMW each, two under the
/// per-chunk ablation. Out-list loops count once after the loop, which
/// keeps the counter's load-add-store off the per-edge path.
void countMarks(const LfShared& s, StepCounters& cnt, std::size_t marks) {
  cnt.flagRmws += s.chunkFlags != nullptr ? 2 * marks : marks;
}

/// Dynamic Frontier expansion: v's rank moved by more than tau_f, so its
/// out-neighbours join the affected set and are pulled in every later
/// round of this run. Only a move above tau (`wake`) also marks them
/// unconverged, which keeps the run going until they have pulled it; a
/// smaller move may end the run unpulled, the slack the bound in
/// error.hpp (asyncToleranceBound) budgets for. When marks are made, the
/// caller has already published v's new rank, so the release marks carry
/// it (part 1 above).
void expandFrontier(const LfShared& s, StepCounters& cnt, VertexId v,
                    bool wake) {
  const std::uint8_t a = s.affected->load(v);
  const bool expanded = (a & kFrontierExpanded) != 0;
  if (expanded && !wake) return;
  const auto out = s.graph.out(v);
  for (VertexId w : out) {
    if (!expanded) markAffected(*s.affected, w);
    if (wake) markUnconverged(s, w);
  }
  if (wake) countMarks(s, cnt, out.size());
  if (!expanded) s.affected->store(v, a | kFrontierExpanded);
}

/// Out-neighbour wakeup after publishing v with delta dr, DF-BB's rule:
/// above the frontier tolerance tau_f the neighbours become affected,
/// above the iteration tolerance tau they also become unconverged. A
/// change below tau_f no longer matters downstream (Section 4.5).
void wakeNeighbours(const LfShared& s, StepCounters& cnt, VertexId v,
                    double dr, double tauF, double tau) {
  if (s.expandFrontier && dr > tauF) expandFrontier(s, cnt, v, dr > tau);
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

  wakeNeighbours(s, cnt, v, dr, tauF, tau);

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
      wakeNeighbours(s, cnt, v, dr2, tauF, tau);
      if (dr2 > tau) {
        anyUnconverged = true;
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

/// Static-schedule ablation (Eedi et al. style): each thread owns a
/// fixed stripe of the vertex range instead of pulling dynamic chunks.
/// Stripes progress unevenly, so three rules keep the convergence claim
/// honest:
///
///  * Stripe wake. Only a stripe's owner marks its vertices, so a stripe
///    swept clean would stay clean while its in-neighbours in other
///    stripes keep moving. A sweep that moved some vertex by more than
///    tau therefore also marks the first vertex of every other stripe
///    (release RMWs, after its rank publishes), and an owner consumes
///    that mark with an acquire exchange before each sweep, so the sweep
///    reads the waker's ranks. All flags clean then means every stripe
///    was swept after the last move above tau anywhere.
///  * Round budget. Within one round of the team, each of a stripe's
///    numThreads - 1 peers may wake it, so a sweep that moved some vertex
///    by more than tau spends 1/numThreads of a round (the first sweep a
///    whole one), and maxRound counts rounds in those units. A clean
///    sweep is free, so a worker whose stripe settled early (before its
///    peers were spawned, or while they are descheduled) keeps its
///    stripe current instead of spending its budget and leaving. Clean
///    sweeps that no wake prompted yield the CPU, and maxIterations of
///    them in a row end the worker: no peer is making progress (one has
///    crashed, or every other worker left).
///  * A worker that leaves unconverged re-marks its stripe, so a later
///    clean scan cannot hide a stripe nobody sweeps any more.
void staticStripeWorker(const LfShared& s, int tid) {
  const std::size_t n = s.graph.numVertices();
  const auto numThreads =
      static_cast<std::size_t>(std::max(s.opt.numThreads, 1));
  const auto stripeBegin = [&](std::size_t t) { return n * t / numThreads; };
  const auto self = static_cast<std::size_t>(tid);
  const std::size_t begin = stripeBegin(self);
  const std::size_t end = stripeBegin(self + 1);
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;
  const int maxRounds = s.opt.maxIterations;

  int round = 0;
  std::size_t charge = 0;  // toward the next round, in 1/numThreads units
  int idle = 0;            // clean sweeps in a row that no wake prompted
  while (round < maxRounds && !exitLoops(s)) {
    bool woken = false;
    if (end > begin) {
      ++cnt.flagRmws;
      woken = s.notConverged.exchange(begin, 0, std::memory_order_acquire) != 0;
    }
    bool anyUnconverged = false;
    if (!processRange(s, cnt, tid, begin, end, anyUnconverged))
      return;  // crashed
    if (anyUnconverged) {
      for (std::size_t t = 0; t < numThreads; ++t) {
        if (t == self || stripeBegin(t) == stripeBegin(t + 1)) continue;
        markUnconverged(s, static_cast<VertexId>(stripeBegin(t)));
        countMarks(s, cnt, 1);
      }
    } else if (s.chunkFlags != nullptr && end > begin) {
      // Chunk-by-chunk clear-then-reverify. A wholesale stripe clear
      // could wipe chunks a concurrent mark had just set — the
      // chunk-granularity variant of the lost wakeup.
      for (std::size_t c = begin / s.opt.chunkSize;
           c <= (end - 1) / s.opt.chunkSize; ++c)
        clearChunkFlagAndReverify(s, cnt, c);
    }
    if (anyUnconverged || round == 0) {
      charge += round > 0 ? 1 : numThreads;
      if (charge >= numThreads) {
        charge -= numThreads;
        atomicMaxInt(s.maxRound, ++round);
      }
      idle = 0;
    } else if (woken) {
      idle = 0;
    } else if (++idle >= maxRounds) {
      break;
    } else {
      std::this_thread::yield();
    }
    if (flagsAllZeroFrom(s, scanHint)) {
      s.allConverged.store(true, std::memory_order_relaxed);
      return;
    }
  }
  if (s.allConverged.load(std::memory_order_relaxed)) return;
  for (std::size_t v = begin; v < end; ++v)
    markUnconverged(s, static_cast<VertexId>(v));
  countMarks(s, cnt, end - begin);
}

}  // namespace

void lfIterateWorker(const LfShared& s, int tid) {
  if (s.opt.staticSchedule) {
    staticStripeWorker(s, tid);
    return;
  }
  StepCounters& cnt = s.counters[tid];
  std::size_t scanHint = 0;  // resume point for this thread's convergence scans
  for (int round = 0; round < s.opt.maxIterations; ++round) {
    if (exitLoops(s)) break;
    std::size_t begin = 0, end = 0;
    while (!exitLoops(s) &&
           s.rounds.next(static_cast<std::size_t>(round), begin, end)) {
      bool anyUnconverged = false;
      if (!processRange(s, cnt, tid, begin, end, anyUnconverged))
        return;  // crashed
      if (s.chunkFlags != nullptr && !anyUnconverged)
        clearChunkFlagAndReverify(s, cnt, begin / s.opt.chunkSize);
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
