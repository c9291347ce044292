// Public API: the eight PageRank engines of the paper.
//
//   Static*  — full recomputation from uniform ranks        (Algorithms 3, 4)
//   ND*      — Naive-dynamic: rerun seeded with R^{t-1}     (Algorithms 5, 6)
//   DT*      — Dynamic Traversal: restrict to vertices      (Algorithms 7, 8)
//              reachable from the batch
//   DF*      — Dynamic Frontier: incremental frontier of    (Algorithms 1, 2)
//              likely-changed vertices — the contribution
//
// each in a barrier-based (BB, synchronous Jacobi, two rank vectors) and
// a lock-free (LF, asynchronous in-place, per-vertex converged flags)
// variant. The LF engines guarantee progress under random thread delays
// and crash-stop failures injected through FaultInjector; the BB engines
// report DNF when a crash breaks their iteration barrier.
//
// Graphs are expected to have a self-loop on every vertex (dead-end
// elimination, Section 5.1.3); DynamicDigraph::ensureSelfLoops() and the
// generators take care of this.
#pragma once

#include <span>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "pagerank/error.hpp"
#include "pagerank/options.hpp"
#include "pagerank/reference.hpp"
#include "sched/fault.hpp"

namespace lfpr {

/// Barrier-based static PageRank from uniform initial ranks (Alg. 3).
PageRankResult staticBB(const CsrGraph& curr, const PageRankOptions& opt = {},
                        FaultInjector* fault = nullptr);

/// Lock-free static PageRank with dynamic chunk scheduling (Alg. 4).
PageRankResult staticLF(const CsrGraph& curr, const PageRankOptions& opt = {},
                        FaultInjector* fault = nullptr);

/// Barrier-based Naive-dynamic PageRank seeded with prevRanks (Alg. 5).
PageRankResult ndBB(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt = {}, FaultInjector* fault = nullptr);

/// Lock-free Naive-dynamic PageRank (Alg. 6).
PageRankResult ndLF(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt = {}, FaultInjector* fault = nullptr);

/// Barrier-based Dynamic Traversal PageRank (Alg. 7).
PageRankResult dtBB(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt = {},
                    FaultInjector* fault = nullptr);

/// Lock-free Dynamic Traversal PageRank (Alg. 8).
PageRankResult dtLF(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt = {},
                    FaultInjector* fault = nullptr);

/// Barrier-based Dynamic Frontier PageRank (Alg. 1).
PageRankResult dfBB(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt = {},
                    FaultInjector* fault = nullptr);

/// Lock-free, fault-tolerant Dynamic Frontier PageRank (Alg. 2) — the
/// paper's primary contribution.
PageRankResult dfLF(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt = {},
                    FaultInjector* fault = nullptr);

/// Lock-free delta-push residual engine (opt-in; not one of the paper's
/// eight). DF marking seeds per-vertex residual accumulators, then
/// workers forward-push only the changed mass through lock-free
/// fetch-adds — built for the mid-density batch band where the pull
/// sweep does redundant work. A vertex activates (its RC flag is
/// marked) when its residual crosses opt.tolerance, and workers drain
/// flagged vertices with the pull engines' chunked flag sweep, so a
/// crashed thread's vertices are drained by survivors in later rounds.
/// The usual asyncToleranceBound certificate holds.
PageRankResult deltaPush(const CsrGraph& prev, const CsrGraph& curr,
                         const BatchUpdate& batch,
                         std::span<const double> prevRanks,
                         const PageRankOptions& opt = {},
                         FaultInjector* fault = nullptr);

/// Incremental Monte Carlo PageRank (opt-in; not one of the paper's
/// eight): builds R random-walk segments per root on `prev`, repairs
/// exactly the walks through `batch`'s changed vertices, and derives
/// ranks from visit counts — approximate (result.monteCarlo is set and
/// toleranceBound is the *statistical* mcL1ErrorBound, no §4.5
/// certificate), but batch work is O(walks through changed vertices)
/// and the same store answers personalized queries (ppr.hpp; served
/// live via RankService::pprTopK). No prevRanks parameter: ranks come
/// from the walks, never from a seed. See opt.mcWalksPerVertex /
/// mcMaxWalkLength / mcSeed.
PageRankResult monteCarlo(const CsrGraph& prev, const CsrGraph& curr,
                          const BatchUpdate& batch,
                          const PageRankOptions& opt = {},
                          FaultInjector* fault = nullptr);

/// Uniform dispatch over all eight engines plus DeltaPush and MonteCarlo
/// (harness convenience). Static engines ignore prev/batch/prevRanks;
/// ND engines ignore prev/batch; MonteCarlo ignores prevRanks.
PageRankResult runApproach(Approach approach, const CsrGraph& prev,
                           const CsrGraph& curr, const BatchUpdate& batch,
                           std::span<const double> prevRanks,
                           const PageRankOptions& opt = {},
                           FaultInjector* fault = nullptr);

}  // namespace lfpr
