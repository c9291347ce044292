// Resumable step API for the lock-free engines (the PR 6 service
// refactor). The one-shot entry points (staticLF/ndLF, dynamicLF) used
// to own their working state — rank vector, affected / notConverged /
// checked flags — allocate it per call, run to convergence, and copy the
// ranks out. A long-lived service solving batch after batch against the
// same vertex set wants none of that: the rank vector must *persist*
// between steps (it is the warm start the dynamic algorithms are built
// around) and the flag vectors are pure scratch that is wasteful to
// reallocate thousands of times.
//
// LfEngineState is that persistent state, and the two step functions run
// exactly one converged-or-capped lock-free solve against it:
//
//   lfFullStep     every vertex marked unconverged — Static/ND semantics;
//                  whatever is in state.ranks is the seed (uniform for a
//                  static solve, the previous fixpoint for ND). Also the
//                  service's crash-recovery re-solve.
//   lfDynamicStep  batch-marked frontier — DT (traverse) / DF
//                  (expandFrontier) semantics against a prev/curr
//                  snapshot pair.
//
// Both leave the updated ranks IN state.ranks (result.ranks stays empty;
// the caller decides when a copy is worth it — the service copies only
// at publish). The one-shot engine entry points are now thin wrappers:
// seed a fresh state, take one step, copy out. The PR 1 termination
// protocol is untouched — the steps drive the same markAffectedWorker /
// lfIterateWorker / lfFinishSequential pipeline documented in
// lf_iterate.cpp; only the ownership of the buffers moved.
#pragma once

#include <memory>
#include <span>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/detail/monte_carlo.hpp"
#include "pagerank/options.hpp"
#include "sched/fault.hpp"

namespace lfpr::detail {

/// Working state for a sequence of lock-free solve steps over a fixed
/// vertex set. Constructed once (all vectors sized n); each step resets
/// the flag vectors and iterates the rank vector in place.
struct LfEngineState {
  explicit LfEngineState(std::size_t n)
      : ranks(n, 0.0), affected(n, 0), notConverged(n, 0), checked(n, 0) {}

  /// Seed the rank vector (no concurrent step may be running).
  void seedRanks(std::span<const double> init) noexcept { ranks.assign(init); }
  void seedUniform() noexcept {
    ranks.fill(ranks.size() == 0 ? 0.0
                                 : 1.0 / static_cast<double>(ranks.size()));
  }

  [[nodiscard]] std::size_t size() const noexcept { return ranks.size(); }

  /// Lazily allocate the delta-push residual array (8n bytes nobody else
  /// pays for: pull-only step sequences never call this).
  AtomicF64Vector& ensureResidual() {
    if (!residual) residual = std::make_unique<AtomicF64Vector>(size(), 0.0);
    return *residual;
  }

  AtomicF64Vector ranks;
  AtomicU8Vector affected;      // dynamic steps only
  AtomicU8Vector notConverged;  // the termination protocol's RC flags
  AtomicU8Vector checked;       // marking-phase helping flags

  /// Delta-push residual accumulators (lfDeltaPushStep only; null until
  /// the first push step). A *converged* push step leaves sub-threshold
  /// parked residuals here that are still-valid pending mass for the next
  /// push step — the next seed recomputes affected vertices exactly and
  /// keeps the rest, avoiding an O(n) clear per step. Any pull step
  /// (lfFullStep / lfDynamicStep) mutates ranks without maintaining the
  /// residuals, so it flips residualValid off and the next push step
  /// zero-fills.
  std::unique_ptr<AtomicF64Vector> residual;
  bool residualValid = false;

  /// Monte Carlo walk store (lfMonteCarloStep only; null until the first
  /// MC step). Persists across MC steps the same way the residuals do:
  /// a completed MC step leaves the walks consistent with `curr` and
  /// flips monteCarloValid on, so the next MC step repairs instead of
  /// rebuilding. Any exact-engine step moves ranks without maintaining
  /// walks and flips it off; the next MC step rebuilds from scratch.
  std::unique_ptr<MonteCarloState> monteCarlo;
  bool monteCarloValid = false;
};

/// Throws std::out_of_range("<name>: batch edge out of range") when an
/// edge of `batch` names a vertex outside [0, numVertices).
void checkBatchEdges(const BatchUpdate& batch, std::size_t numVertices,
                     const char* name);

/// The input checks every batch step shares: `numRanks` (the warm rank
/// vector) and the prev/curr snapshots must all cover the same vertex
/// set (std::invalid_argument), and the batch must stay inside it
/// (checkBatchEdges). Errors are labelled with `name`.
void checkStepInputs(const CsrGraph& prev, const CsrGraph& curr,
                     const BatchUpdate& batch, std::size_t numRanks,
                     const char* name);

/// One full solve step: every vertex starts unconverged, state.ranks is
/// the seed. Returns the usual engine result minus the rank copy
/// (result.ranks empty; ranks live in state). `curr.numVertices()` must
/// equal `state.size()`.
PageRankResult lfFullStep(LfEngineState& state, const CsrGraph& curr,
                          const PageRankOptions& opt, FaultInjector* fault);

/// One batch-incremental solve step (DT when `traverse`, DF when
/// `expandFrontier`): marks the frontier from `batch` against the
/// prev/curr snapshot pair, then iterates. state.ranks must hold
/// converged ranks for `prev`. Throws like dtLF/dfLF on mismatched
/// inputs. `name` labels validation errors ("dfLF", "service", ...).
PageRankResult lfDynamicStep(LfEngineState& state, const CsrGraph& prev,
                             const CsrGraph& curr, const BatchUpdate& batch,
                             const PageRankOptions& opt, FaultInjector* fault,
                             bool traverse, bool expandFrontier,
                             const char* name);

/// One batch-incremental *delta-push* solve step (the PR 8 engine,
/// detail/delta_push.cpp): DF marking seeds per-vertex residuals, then
/// workers forward-push only the changed mass instead of re-pulling every
/// incident edge of every dirty vertex. Same contract as lfDynamicStep
/// (state.ranks must hold converged ranks for `prev`); workers find
/// their work with the same chunked flag sweep as the pull engines.
/// Validation errors are labelled with `name`.
PageRankResult lfDeltaPushStep(LfEngineState& state, const CsrGraph& prev,
                               const CsrGraph& curr, const BatchUpdate& batch,
                               const PageRankOptions& opt, FaultInjector* fault,
                               const char* name);

/// One Monte Carlo walk-store step (detail/monte_carlo.cpp). If the
/// store is missing/invalid or its config (mcWalksPerVertex,
/// mcMaxWalkLength, mcSeed, alpha) changed, the walks are (re)built on
/// `prev` first; then a non-empty `batch` is repaired into the store
/// against the prev/curr snapshot pair (walk claims via the DF marks +
/// per-walk claim flags). Ranks land in state.ranks as everywhere else;
/// result.monteCarlo is set and result.toleranceBound carries the
/// *statistical* mcL1ErrorBound, not a §4.5 certificate. With an empty
/// batch the caller asserts prev and curr are the same snapshot.
/// Validation errors are labelled with `name`.
PageRankResult lfMonteCarloStep(LfEngineState& state, const CsrGraph& prev,
                                const CsrGraph& curr, const BatchUpdate& batch,
                                const PageRankOptions& opt, FaultInjector* fault,
                                const char* name);

}  // namespace lfpr::detail
