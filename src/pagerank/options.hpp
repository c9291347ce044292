// Options and results shared by all eight PageRank engines.
//
// Defaults mirror the paper's configuration (Section 5.1.2): damping
// factor 0.85, iteration tolerance 1e-10 under the L-inf norm, frontier
// tolerance tau/1000 (Section 4.5), at most 500 iterations, dynamic
// chunks of 2048 vertices.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

namespace lfpr {

struct PageRankOptions {
  /// Damping factor alpha.
  double alpha = 0.85;
  /// Iteration tolerance tau (L-inf over consecutive iterations).
  double tolerance = 1e-10;
  /// Frontier tolerance tau_f: a rank change above this marks the
  /// vertex's out-neighbours as affected (Dynamic Frontier only). It
  /// only grows the frontier: a neighbour is woken (marked unconverged)
  /// by a change above `tolerance`, so runs stop at tau, not tau_f.
  double frontierTolerance = 1e-13;
  /// Iteration cap (paper: 500).
  int maxIterations = 500;
  /// Worker threads; <= 0 selects hardware concurrency.
  int numThreads = 0;
  /// Vertices per dynamically-scheduled chunk.
  std::size_t chunkSize = 2048;
  /// DF-LF ablation: per-chunk instead of per-vertex converged flags
  /// ("one may use a per-chunk converged flag for even faster detection
  /// of convergence", Section 4.3).
  bool perChunkConvergence = false;
  /// Static-LF ablation: fixed per-thread vertex partitions instead of
  /// dynamic chunks — the Eedi et al. scheduling the paper improves on
  /// (Section 3.3.2). Not crash tolerant: a crashed owner's stripe is
  /// never swept again, so such a run ends unconverged.
  bool staticSchedule = false;
  /// MonteCarlo only: R — random-walk segments rooted at every vertex.
  /// Accuracy scales as 1/sqrt(R) (error.hpp mcL1ErrorBound), memory and
  /// build time as R. See the README R/accuracy table.
  int mcWalksPerVertex = 16;
  /// MonteCarlo only: hard cap on a walk segment's length (storage
  /// stride). A geometric(1 - alpha) walk exceeds length L with
  /// probability alpha^(L-1) — ~0.66% at the default 32 with alpha =
  /// 0.85 — and truncated walks bias long-range mass slightly low; raise
  /// the cap (<= 65535) when alpha is pushed toward 1.
  int mcMaxWalkLength = 32;
  /// MonteCarlo only: base seed of the counter-based per-(walk, epoch)
  /// RNG streams. Same seed + same batch schedule => bit-identical walk
  /// store, across runs and across service restarts.
  std::uint64_t mcSeed = 0x5eedULL;
  /// BB engines: how long a thread may wait at a barrier before the run
  /// is declared dead (crash-stop deadlock detection).
  std::chrono::milliseconds barrierTimeout{60'000};
  /// Service lifecycle hook: cooperative stop token. When non-null and
  /// set, workers exit at the next iteration boundary and the result
  /// comes back with `stopped = true` and `converged = false` (the
  /// convergence flags stay authoritative — a stopped run is never
  /// reported converged unless the flags were already clean). Lets a
  /// long-lived owner (RankService::stop()) end an in-flight solve
  /// promptly without killing threads.
  const std::atomic<bool>* stopRequested = nullptr;
};

/// Protocol-cost counters of the lock-free engines, so publish-protocol
/// costs are diagnosable without perf tools. Always counted (per worker
/// thread, summed once per step); always zero for the barrier-based
/// engines.
struct ProtocolStats {
  /// Clear-then-reverify re-pulls (termination protocol part 1); for
  /// DeltaPush, the one seed pull per marked vertex.
  std::uint64_t rePulls = 0;
  /// RMWs on the notConverged / chunk flags (marks and clears).
  std::uint64_t flagRmws = 0;
  /// Residual fetch-adds into out-neighbours (DeltaPush only) — the
  /// push-engine analogue of per-edge pull work, so push-vs-pull
  /// redundant-work claims are measurable, not inferred.
  std::uint64_t residualPushes = 0;
  /// Threshold-crossing activations (DeltaPush only): pushes whose
  /// target residual crossed the activation threshold and marked its
  /// RC flag, plus clears that the reverify undid.
  std::uint64_t activations = 0;

  ProtocolStats& operator+=(const ProtocolStats& o) noexcept {
    rePulls += o.rePulls;
    flagRmws += o.flagRmws;
    residualPushes += o.residualPushes;
    activations += o.activations;
    return *this;
  }
};

struct PageRankResult {
  std::vector<double> ranks;
  /// Iterations executed (LF: the maximum round any thread completed).
  int iterations = 0;
  bool converged = false;
  /// The run exited early because PageRankOptions::stopRequested was set.
  bool stopped = false;
  /// Rank-error certificate (paper Section 4.5): an upper bound on
  /// ||ranks - r*||_inf against the true fixpoint, derived from the
  /// stopping rule actually used — syncToleranceBound for the
  /// barrier-based engines, asyncToleranceBound for the lock-free ones
  /// (error.hpp). Infinity when the run did not converge: an unconverged
  /// rank vector certifies nothing.
  double toleranceBound = std::numeric_limits<double>::infinity();
  /// Did-not-finish: a barrier broke (some thread crashed or stalled past
  /// the timeout). BB engines only; LF engines never DNF.
  bool dnf = false;
  /// Solve time measured inside the engine, excluding result-vector
  /// allocation/deallocation (the paper's measurement protocol, 5.1.5).
  double timeMs = 0.0;
  /// Total time threads spent waiting at iteration barriers (BB only).
  double waitMs = 0.0;
  /// Vertex-rank computations performed across all threads (one per
  /// rank publish; DeltaPush counts residual drains).
  std::uint64_t rankUpdates = 0;
  /// Vertices marked affected (DF/DT engines).
  std::uint64_t affectedVertices = 0;
  /// The ranks are Monte-Carlo estimates (Approach::MonteCarlo):
  /// `toleranceBound` is then the *statistical* L1 scale
  /// mcL1ErrorBound(alpha, R) — expected error with a safety factor —
  /// NOT the worst-case §4.5 certificate the exact engines carry.
  bool monteCarlo = false;
  /// See ProtocolStats.
  ProtocolStats protocolStats;
};

enum class Approach : int {
  StaticBB,
  StaticLF,
  NDBB,
  NDLF,
  DTBB,
  DTLF,
  DFBB,
  DFLF,
  /// Opt-in third engine family (not one of the paper's eight): lock-free
  /// forward-push over per-vertex residual accumulators, DF marking
  /// semantics. See pagerank.hpp deltaPush().
  DeltaPush,
  /// Opt-in approximate engine (not one of the paper's eight): Bahmani-
  /// style incremental Monte Carlo — R random-walk segments per root,
  /// repaired per batch via the DF marks + per-walk claim flags;
  /// also serves personalized PageRank. See pagerank.hpp monteCarlo().
  MonteCarlo,
};

inline const char* approachName(Approach a) noexcept {
  switch (a) {
    case Approach::StaticBB: return "StaticBB";
    case Approach::StaticLF: return "StaticLF";
    case Approach::NDBB: return "NDBB";
    case Approach::NDLF: return "NDLF";
    case Approach::DTBB: return "DTBB";
    case Approach::DTLF: return "DTLF";
    case Approach::DFBB: return "DFBB";
    case Approach::DFLF: return "DFLF";
    case Approach::DeltaPush: return "DeltaPush";
    case Approach::MonteCarlo: return "MonteCarlo";
  }
  return "?";
}

inline bool isLockFree(Approach a) noexcept {
  return a == Approach::StaticLF || a == Approach::NDLF || a == Approach::DTLF ||
         a == Approach::DFLF || a == Approach::DeltaPush ||
         a == Approach::MonteCarlo;
}

inline bool isDynamicApproach(Approach a) noexcept {
  return a != Approach::StaticBB && a != Approach::StaticLF;
}

/// The paper's eight engines — the ablation sweeps iterate exactly these.
/// DeltaPush and MonteCarlo are dispatchable through runApproach but
/// deliberately not listed: they are this repo's extensions, benched
/// against DFLF explicitly (bench_fig7_batch_sweep) rather than folded
/// into every paper table.
constexpr Approach kAllApproaches[] = {
    Approach::StaticBB, Approach::StaticLF, Approach::NDBB, Approach::NDLF,
    Approach::DTBB,     Approach::DTLF,     Approach::DFBB, Approach::DFLF,
};

}  // namespace lfpr
