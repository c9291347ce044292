// Kernel-equivalence suite for the contribution-cached pull kernels.
//
// Two levels of equivalence, each with a derived bound — no magic 1e-6
// floors:
//
//  * Kernel level: a single pull evaluated through the cached kernels
//    must match a long-double evaluation of Equation 1 within an IEEE-754
//    rounding envelope derived from the in-degree (each of the d products
//    contributes <= 1 ulp, the summation <= d ulps, the final fma <= 2
//    ulps; everything is scaled by the exact value).
//  * Engine level: a full solve must land within the stopping-rule bounds
//    of error.hpp (syncToleranceBound for the synchronous BB engines,
//    asyncToleranceBound for the asynchronous LF engines) of the
//    reference ranks, across alpha/tolerance sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "generate/generators.hpp"
#include "harness/scenario.hpp"
#include "pagerank/detail/common.hpp"
#include "pagerank/pagerank.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

CsrGraph rmatGraph(int scale, EdgeId edges, std::uint64_t seed,
                   bool selfLoops = true) {
  Rng rng(seed);
  auto es = generateRmat(scale, edges, rng);
  if (selfLoops) appendSelfLoops(es, VertexId{1} << scale);
  return CsrGraph::fromEdges(VertexId{1} << scale, es);
}

/// Dead-end-heavy graph: only even vertices get self-loops, odd vertices
/// keep whatever out-edges the generator gave them (many end up with
/// out-degree 0 at low edge counts).
CsrGraph deadEndGraph(int scale, EdgeId edges, std::uint64_t seed) {
  Rng rng(seed);
  auto es = generateRmat(scale, edges, rng);
  const VertexId n = VertexId{1} << scale;
  for (VertexId v = 0; v < n; v += 2) es.push_back({v, v});
  return CsrGraph::fromEdges(n, es);
}

/// Equation 1 for one vertex in long double with per-edge division — the
/// semantics the optimized kernels must reproduce.
double referencePull(const CsrGraph& g, const std::vector<double>& ranks, VertexId v,
                     double alpha, double base) {
  long double sum = 0.0L;
  for (VertexId u : g.in(v))
    sum += static_cast<long double>(ranks[u]) /
           static_cast<long double>(g.outDegree(u));
  return static_cast<double>(static_cast<long double>(base) +
                             static_cast<long double>(alpha) * sum);
}

/// Rounding envelope for a d-term multiply-add pull of magnitude |exact|:
/// the cached reciprocal (1 ulp/term), the product (1 ulp/term), the
/// running sum (d ulps), and the base + alpha*sum tail (2 ulps), all
/// relative to the largest intermediate, which rank normalization keeps
/// within [|exact|, 1].
double kernelBound(std::size_t inDegree, double exact) {
  const double eps = std::numeric_limits<double>::epsilon();
  return static_cast<double>(3 * inDegree + 2) * eps * std::max(std::fabs(exact), 1.0e-300);
}

TEST(KernelEquivalence, CachedKernelMatchesReferencePull) {
  for (std::uint64_t seed : {21u, 22u}) {
    const auto g = rmatGraph(9, 4000, seed);
    std::vector<double> ranks(g.numVertices());
    Rng rng(seed + 100);
    for (double& r : ranks) r = rng.uniform();  // un-normalized: harder case
    const double base = 0.15 / static_cast<double>(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      const double exact = referencePull(g, ranks, v, 0.85, base);
      const double got = detail::pullRank(g, ranks, v, 0.85, base);
      EXPECT_NEAR(got, exact, kernelBound(g.in(v).size(), exact)) << "vertex " << v;
    }
  }
}

TEST(KernelEquivalence, AtomicKernelsMatchPlainKernels) {
  const auto g = rmatGraph(8, 1500, 25);
  std::vector<double> plain(g.numVertices());
  Rng rng(26);
  for (double& r : plain) r = rng.uniform();
  const AtomicF64Vector atomic{std::span<const double>(plain)};
  const double base = 0.15 / static_cast<double>(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    EXPECT_EQ(detail::pullRank(g, plain, v, 0.85, base),
              detail::pullRank(g, atomic, v, 0.85, base));
  }
}

TEST(KernelEquivalence, DeadEndContributionIsNeverRead) {
  // A dead end's invOutDegree is 0.0 by definition, and no in-list may
  // reference it (it has no out-edges), so kernels over a dead-end-heavy
  // graph stay finite.
  const auto g = deadEndGraph(8, 600, 27);
  g.validate();
  std::size_t deadEnds = 0;
  for (VertexId v = 0; v < g.numVertices(); ++v)
    if (g.outDegree(v) == 0) {
      ++deadEnds;
      EXPECT_EQ(g.invOutDegree(v), 0.0);
    }
  ASSERT_GT(deadEnds, 0u) << "generator produced no dead ends; adjust seed";
  const std::vector<double> ranks(g.numVertices(), 1.0 / g.numVertices());
  const double base = 0.15 / static_cast<double>(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v)
    EXPECT_TRUE(std::isfinite(detail::pullRank(g, ranks, v, 0.85, base)));
}

// ----- Engine-level equivalence: alpha x tolerance -----------------------

struct AlphaToleranceSweepParam {
  double alpha;
  double tolerance;
};

class AlphaToleranceSweep
    : public ::testing::TestWithParam<AlphaToleranceSweepParam> {};

TEST_P(AlphaToleranceSweep, EnginesLandWithinDerivedBounds) {
  const auto [alpha, tolerance] = GetParam();
  const auto g = rmatGraph(9, 4000, 31);
  const auto ref = referenceRanks(g, alpha);
  // Same slack as the AlphaSweep in test_pagerank_static.cpp: scheduling
  // jitter on the async engines (rollback stores may each inject up to
  // one extra tolerance).
  constexpr double kSlack = 8.0;
  PageRankOptions opt;
  opt.alpha = alpha;
  opt.tolerance = tolerance;
  opt.numThreads = 4;
  opt.chunkSize = 64;
  const auto bb = staticBB(g, opt);
  ASSERT_TRUE(bb.converged);
  EXPECT_LT(linfNorm(bb.ranks, ref), kSlack * syncToleranceBound(tolerance, alpha));
  const auto lf = staticLF(g, opt);
  ASSERT_TRUE(lf.converged);
  EXPECT_LT(linfNorm(lf.ranks, ref), kSlack * asyncToleranceBound(tolerance, alpha));
}

INSTANTIATE_TEST_SUITE_P(
    AlphaTolerance, AlphaToleranceSweep,
    ::testing::Values(AlphaToleranceSweepParam{0.5, 1e-10},
                      AlphaToleranceSweepParam{0.85, 1e-10},
                      AlphaToleranceSweepParam{0.95, 1e-10},
                      AlphaToleranceSweepParam{0.85, 1e-8},
                      AlphaToleranceSweepParam{0.85, 1e-12}),
    [](const ::testing::TestParamInfo<AlphaToleranceSweepParam>& info) {
      const int a = static_cast<int>(info.param.alpha * 100);
      const int t = static_cast<int>(-std::log10(info.param.tolerance) + 0.5);
      return "alpha" + std::to_string(a) + "_tol1e" + std::to_string(t);
    });

// ----- Delta-push equivalence: the residual engine against the same ------
// ----- long-double-derived bounds as the pull engines                ------

DynamicScenario deltaPushScenario(std::uint64_t seed, double fraction) {
  Rng rng(seed);
  auto es = generateRmat(10, 8000, rng);
  appendSelfLoops(es, 1024);
  auto base = DynamicDigraph::fromEdges(1024, es);
  PageRankOptions opt;
  opt.numThreads = 4;
  return makeScenario(std::move(base), fraction, seed + 1, opt);
}

TEST(KernelEquivalence, DeltaPushLandsWithinDerivedBounds) {
  // The residual engine's parked mass keeps the converged error within
  // asyncToleranceBound (tau/(1-alpha)), the same certificate the pull
  // engines report — across thread counts and batch fractions spanning
  // the mid-density band the engine targets. The batches contain deletions, so negative
  // residual mass is exercised too.
  //
  // Slack: 16x instead of the pull tests' 8x. The pull engines' error is
  // dominated by each vertex's final sub-tolerance jump; the push engine
  // additionally parks up to tau of residual at EVERY vertex at once,
  // and parked upstream mass compounds through high-in-degree vertices
  // ((I - alpha A)^{-1} amplifies the per-vertex tau by more than
  // 1/(1-alpha) in the l-inf norm when rows of A sum above 1). Observed
  // worst case is ~9x the certificate; 16x keeps the test sharp without
  // flaking.
  constexpr double kSlack = 16.0;
  std::uint64_t seed = 41;
  for (const double fraction : {1e-3, 1e-2}) {
    const auto scenario = deltaPushScenario(seed++, fraction);
    ASSERT_FALSE(scenario.batch.deletions.empty());
    const auto ref = referenceRanks(scenario.curr);
    for (const int threads : {1, 4}) {
      PageRankOptions opt;
      opt.numThreads = threads;
      opt.chunkSize = 64;
      const auto r = deltaPush(scenario.prev, scenario.curr, scenario.batch,
                               scenario.prevRanks, opt);
      ASSERT_TRUE(r.converged) << "threads " << threads;
      EXPECT_LT(linfNorm(r.ranks, ref),
                kSlack * asyncToleranceBound(opt.tolerance, opt.alpha))
          << "threads " << threads;
      // Default (absolute-threshold) certificate.
      EXPECT_DOUBLE_EQ(r.toleranceBound,
                       asyncToleranceBound(opt.tolerance, opt.alpha));
    }
  }
}

TEST(KernelEquivalence, DeltaPushThroughRunApproachDispatch) {
  const auto scenario = deltaPushScenario(47, 1e-2);
  const auto ref = referenceRanks(scenario.curr);
  PageRankOptions opt;
  opt.numThreads = 4;
  opt.chunkSize = 64;
  const auto r = runOnScenario(Approach::DeltaPush, scenario, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(linfNorm(r.ranks, ref),
            16.0 * asyncToleranceBound(opt.tolerance, opt.alpha));
  EXPECT_GT(r.affectedVertices, 0u);
}

TEST(KernelEquivalence, DeltaPushOnDeadEndHeavyGraph) {
  // Mass pushed into a dead end is applied and stops there (invOutDegree
  // is exactly 0.0) — the same leak semantics as the pull formulation,
  // so the two engine families still agree on the fixpoint.
  Rng rng(57);
  auto es = generateRmat(9, 1500, rng);
  const VertexId n = 1 << 9;
  for (VertexId v = 0; v < n; v += 2) es.push_back({v, v});
  auto base = DynamicDigraph::fromEdges(n, es);
  PageRankOptions opt;
  opt.numThreads = 4;
  opt.chunkSize = 64;
  const auto scenario = makeScenario(std::move(base), 1e-2, 58, opt);
  const auto ref = referenceRanks(scenario.curr);
  const auto r = deltaPush(scenario.prev, scenario.curr, scenario.batch,
                           scenario.prevRanks, opt);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(linfNorm(r.ranks, ref),
            16.0 * asyncToleranceBound(opt.tolerance, opt.alpha));
}

}  // namespace
}  // namespace lfpr
