// Lock-free delta-push residual PageRank (the PR 8 engine family; not
// one of the paper's eight). The DF marking phase seeds per-vertex
// residual accumulators with one pull each; from then on the solve is
// pull-free — workers forward-push only the changed mass through C++20
// floating-point fetch-adds, marking a neighbour's RC flag when a push
// crosses the activation threshold, and find flagged vertices with the
// pull engines' chunked flag sweep. See detail/delta_push.cpp for the
// protocol mapping.
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/pagerank.hpp"

namespace lfpr {

PageRankResult deltaPush(const CsrGraph& prev, const CsrGraph& curr,
                         const BatchUpdate& batch,
                         std::span<const double> prevRanks,
                         const PageRankOptions& opt, FaultInjector* fault) {
  // One-shot wrapper over the resumable step API, like dynamicLF: a
  // fresh state seeded with prevRanks, exactly one push step, ranks
  // copied out. Long-lived callers (service/rank_service.cpp) keep the
  // state — and its parked residuals — across steps instead. The state
  // takes prevRanks' size, so the step's input check rejects a mismatch.
  detail::LfEngineState state(prevRanks.size());
  state.seedRanks(prevRanks);
  PageRankResult result =
      detail::lfDeltaPushStep(state, prev, curr, batch, opt, fault, "deltaPush");
  result.ranks = state.ranks.toVector();
  return result;
}

}  // namespace lfpr
