// The paper's eight one-shot engines and the uniform dispatch over them
// (plus the opt-in DeltaPush and MonteCarlo families), used by the
// experiment harness and benches. Each engine is a thin entry point over
// one of the shared iteration cores: powerIterateBB (detail/power_bb),
// the resumable lock-free step API (detail/engine_step), or the dynamic
// scaffolding (detail/dynamic_engines).
#include <stdexcept>
#include <vector>

#include "pagerank/detail/dynamic_engines.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/power_bb.hpp"
#include "pagerank/pagerank.hpp"

namespace lfpr {

namespace {

std::vector<double> uniformRanks(std::size_t n) {
  return std::vector<double>(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
}

/// Lock-free power iteration shared by StaticLF and NDLF: a one-shot
/// wrapper over the resumable step API (engine_step.hpp) — a fresh state
/// seeded with init, one full solve step, ranks copied out.
PageRankResult powerIterateLF(const CsrGraph& g, std::vector<double> init,
                              const PageRankOptions& opt, FaultInjector* fault) {
  detail::LfEngineState state(g.numVertices());
  state.seedRanks(init);
  PageRankResult result = detail::lfFullStep(state, g, opt, fault);
  result.ranks = state.ranks.toVector();
  return result;
}

}  // namespace

// Barrier-based static PageRank (Algorithm 3).
PageRankResult staticBB(const CsrGraph& curr, const PageRankOptions& opt,
                        FaultInjector* fault) {
  return detail::powerIterateBB(curr, uniformRanks(curr.numVertices()), opt, fault);
}

// Lock-free static PageRank with dynamic chunk scheduling (Algorithm 4).
PageRankResult staticLF(const CsrGraph& curr, const PageRankOptions& opt,
                        FaultInjector* fault) {
  return powerIterateLF(curr, uniformRanks(curr.numVertices()), opt, fault);
}

// Barrier-based Naive-dynamic PageRank (Algorithm 5): a full synchronous
// rerun on the updated graph, warm-started from the previous snapshot's
// ranks.
PageRankResult ndBB(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  if (prevRanks.size() != curr.numVertices())
    throw std::invalid_argument("ndBB: prevRanks size must match graph");
  return detail::powerIterateBB(curr, {prevRanks.begin(), prevRanks.end()}, opt,
                                fault);
}

// Lock-free Naive-dynamic PageRank (Algorithm 6).
PageRankResult ndLF(const CsrGraph& curr, std::span<const double> prevRanks,
                    const PageRankOptions& opt, FaultInjector* fault) {
  if (prevRanks.size() != curr.numVertices())
    throw std::invalid_argument("ndLF: prevRanks size must match graph");
  return powerIterateLF(curr, {prevRanks.begin(), prevRanks.end()}, opt, fault);
}

// Barrier-based Dynamic Traversal PageRank (Algorithm 7): DFS marks
// everything reachable from the batch's sources, then a synchronous
// iterate restricted to marked vertices.
PageRankResult dtBB(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt,
                    FaultInjector* fault) {
  return detail::dynamicBB(prev, curr, batch, prevRanks, opt, fault,
                           /*traverse=*/true, /*expandFrontier=*/false);
}

// Lock-free Dynamic Traversal PageRank (Algorithm 8).
PageRankResult dtLF(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt,
                    FaultInjector* fault) {
  return detail::dynamicLF(prev, curr, batch, prevRanks, opt, fault,
                           /*traverse=*/true, /*expandFrontier=*/false);
}

// Barrier-based Dynamic Frontier PageRank (Algorithm 1): mark the
// out-neighbours of each batch source, then iterate synchronously over
// affected vertices, expanding the frontier whenever a rank moves by more
// than the frontier tolerance.
PageRankResult dfBB(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt,
                    FaultInjector* fault) {
  return detail::dynamicBB(prev, curr, batch, prevRanks, opt, fault,
                           /*traverse=*/false, /*expandFrontier=*/true);
}

// Lock-free, fault-tolerant Dynamic Frontier PageRank (Algorithm 2) —
// the paper's primary contribution. Phase 1 marks initially affected
// vertices with the helping mechanism (checked flags C); phase 2 iterates
// asynchronously over affected vertices with per-vertex converged flags
// RC and incremental frontier expansion. No barrier separates the phases:
// a thread moves on once it has *verified* (or re-done) everyone's
// marking work.
PageRankResult dfLF(const CsrGraph& prev, const CsrGraph& curr, const BatchUpdate& batch,
                    std::span<const double> prevRanks, const PageRankOptions& opt,
                    FaultInjector* fault) {
  return detail::dynamicLF(prev, curr, batch, prevRanks, opt, fault,
                           /*traverse=*/false, /*expandFrontier=*/true);
}

PageRankResult runApproach(Approach approach, const CsrGraph& prev,
                           const CsrGraph& curr, const BatchUpdate& batch,
                           std::span<const double> prevRanks,
                           const PageRankOptions& opt, FaultInjector* fault) {
  switch (approach) {
    case Approach::StaticBB: return staticBB(curr, opt, fault);
    case Approach::StaticLF: return staticLF(curr, opt, fault);
    case Approach::NDBB: return ndBB(curr, prevRanks, opt, fault);
    case Approach::NDLF: return ndLF(curr, prevRanks, opt, fault);
    case Approach::DTBB: return dtBB(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DTLF: return dtLF(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DFBB: return dfBB(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DFLF: return dfLF(prev, curr, batch, prevRanks, opt, fault);
    case Approach::DeltaPush:
      return deltaPush(prev, curr, batch, prevRanks, opt, fault);
    case Approach::MonteCarlo:
      return monteCarlo(prev, curr, batch, opt, fault);  // prevRanks unused
  }
  throw std::invalid_argument("runApproach: unknown approach");
}

}  // namespace lfpr
