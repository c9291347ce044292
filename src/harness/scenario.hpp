// A DynamicScenario packages everything an engine run needs for one
// (graph, batch) experiment: both snapshots, the batch, and converged
// ranks on the previous snapshot — the state a deployed dynamic-PageRank
// service would carry between updates.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dynamic_digraph.hpp"
#include "pagerank/options.hpp"
#include "pagerank/pagerank.hpp"

namespace lfpr {

struct DynamicScenario {
  CsrGraph prev;
  CsrGraph curr;
  BatchUpdate batch;
  std::vector<double> prevRanks;  // converged ranks on `prev`
};

/// Build a scenario by generating a random batch (paper protocol) against
/// `base` and applying it. `base` is consumed. Previous ranks come from a
/// barrier-based static solve at opt's tolerance (deterministic).
DynamicScenario makeScenario(DynamicDigraph base, double batchFraction,
                             std::uint64_t seed, const PageRankOptions& opt);

/// Same, but with an explicit batch (used by temporal replay and the
/// stability experiment).
DynamicScenario makeScenarioWithBatch(DynamicDigraph base, BatchUpdate batch,
                                      const PageRankOptions& opt);

/// Convenience: run one approach on a scenario.
PageRankResult runOnScenario(Approach approach, const DynamicScenario& s,
                             const PageRankOptions& opt,
                             FaultInjector* fault = nullptr);

/// Bench protocol: tolerances scaled to graph size. The paper's absolute
/// tau = 1e-10 on multi-million-vertex graphs is a ~1e-3 criterion
/// relative to the 1/n rank scale; at laptop scale the same absolute
/// tolerance is orders of magnitude stricter *relative* to rank values,
/// which inflates iteration counts and the Dynamic Frontier's propagation
/// radius. Holding the relative criterion fixed (tau = 1e-3/n, tau_f =
/// tau/1000) keeps iteration counts and frontier sizes comparable to the
/// paper's regime.
PageRankOptions scaledOptions(VertexId numVertices, PageRankOptions base = {});

}  // namespace lfpr
