// Property-based sweeps over graph families, batch compositions and
// engine options: every engine must converge to the reference within the
// paper's error band, conserve rank mass, and the BB engines must be
// deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "generate/batch_gen.hpp"
#include "generate/generators.hpp"
#include "harness/scenario.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/pagerank.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

PageRankOptions testOptions() {
  PageRankOptions opt;
  opt.numThreads = 4;
  opt.chunkSize = 128;
  return opt;
}

// ----- Family x batch-fraction sweep --------------------------------------

struct FamilyParam {
  const char* family;
  double batchFraction;
};

DynamicDigraph buildFamily(const std::string& family, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> es;
  VertexId n = 0;
  if (family == "web") {
    n = 2048;
    es = generateRmat(11, 16000, rng);
  } else if (family == "social") {
    n = 1500;
    es = symmetrize(generateBarabasiAlbert(n, 8, rng));
  } else if (family == "road") {
    n = 2500;
    es = symmetrize(generateGrid(50, 50, 0.01, rng));
  } else {  // kmer
    n = 3000;
    es = symmetrize(generateKmerChains(n, 0.5, rng));
  }
  appendSelfLoops(es, n);
  return DynamicDigraph::fromEdges(n, es);
}

class FamilySweep : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(FamilySweep, AllEnginesAccurateAndMassConserving) {
  const auto& p = GetParam();
  const auto opt = testOptions();
  const auto scenario =
      makeScenario(buildFamily(p.family, 100), p.batchFraction, 200, opt);
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : kAllApproaches) {
    const auto r = runOnScenario(a, scenario, opt);
    ASSERT_TRUE(r.converged) << approachName(a) << " on " << p.family;
    // Terminal accuracy is O(tau / (1 - alpha)) plus interleaving jitter
    // for the asynchronous engines: a converged flag can latch while a
    // late neighbour update still propagates, which on slow-mixing
    // topologies (chains) occasionally reaches ~1e-7 at tau=1e-10. The
    // bound guards against gross inaccuracy, three orders below the 1/n
    // rank scale.
    EXPECT_LT(linfNorm(r.ranks, ref), 1e-6) << approachName(a) << " on " << p.family;
    // LF engines stop per-vertex at tau, so total mass carries an
    // O(n * tau / (1 - alpha)) residual; 1e-6 covers all graph sizes here.
    EXPECT_NEAR(rankSum(r.ranks), 1.0, 1e-6) << approachName(a) << " on " << p.family;
    EXPECT_LE(r.affectedVertices, scenario.curr.numVertices());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySweep,
    ::testing::Values(FamilyParam{"web", 1e-3}, FamilyParam{"web", 1e-1},
                      FamilyParam{"social", 1e-3}, FamilyParam{"social", 1e-1},
                      FamilyParam{"road", 1e-3}, FamilyParam{"road", 1e-1},
                      FamilyParam{"kmer", 1e-3}, FamilyParam{"kmer", 1e-1}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      const double f = info.param.batchFraction;
      return std::string(info.param.family) + (f < 1e-2 ? "_small" : "_large");
    });

// ----- Determinism of the synchronous engines ------------------------------

class DeterminismSweep : public ::testing::TestWithParam<Approach> {};

TEST_P(DeterminismSweep, BBEnginesAreBitwiseDeterministic) {
  // DFBB is excluded: its frontier expansion races benignly within an
  // iteration (a vertex marked mid-sweep may or may not be processed in
  // that same sweep), so only its *converged* ranks are stable, not the
  // bitwise trace. Static/ND/DT have fixed per-iteration work sets.
  const Approach a = GetParam();
  const auto opt = testOptions();
  const auto scenario = makeScenario(buildFamily("web", 300), 1e-2, 301, opt);
  const auto r1 = runOnScenario(a, scenario, opt);
  const auto r2 = runOnScenario(a, scenario, opt);
  EXPECT_EQ(r1.ranks, r2.ranks);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.rankUpdates, r2.rankUpdates);
}

INSTANTIATE_TEST_SUITE_P(BBEngines, DeterminismSweep,
                         ::testing::Values(Approach::StaticBB, Approach::NDBB,
                                           Approach::DTBB),
                         [](const ::testing::TestParamInfo<Approach>& info) {
                           return approachName(info.param);
                         });

TEST(DeterminismSweep, DFBBConvergedRanksAreStable) {
  const auto opt = testOptions();
  const auto scenario = makeScenario(buildFamily("web", 310), 1e-2, 311, opt);
  const auto r1 = runOnScenario(Approach::DFBB, scenario, opt);
  const auto r2 = runOnScenario(Approach::DFBB, scenario, opt);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(linfNorm(r1.ranks, r2.ranks), 1e-9);
}

// ----- LF engines agree with their BB counterparts -------------------------

struct PairParam {
  Approach bb;
  Approach lf;
};

class PairSweep : public ::testing::TestWithParam<PairParam> {};

TEST_P(PairSweep, LockFreeMatchesBarrierBased) {
  const auto& p = GetParam();
  const auto opt = testOptions();
  const auto scenario = makeScenario(buildFamily("kmer", 400), 1e-2, 401, opt);
  const auto bb = runOnScenario(p.bb, scenario, opt);
  const auto lf = runOnScenario(p.lf, scenario, opt);
  ASSERT_TRUE(bb.converged);
  ASSERT_TRUE(lf.converged);
  EXPECT_LT(linfNorm(bb.ranks, lf.ranks), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, PairSweep,
    ::testing::Values(PairParam{Approach::StaticBB, Approach::StaticLF},
                      PairParam{Approach::NDBB, Approach::NDLF},
                      PairParam{Approach::DTBB, Approach::DTLF},
                      PairParam{Approach::DFBB, Approach::DFLF}),
    [](const ::testing::TestParamInfo<PairParam>& info) {
      return std::string(approachName(info.param.bb)) + "vs" +
             approachName(info.param.lf);
    });

// ----- Frontier tolerance controls the accuracy/work trade-off -------------

class FrontierTolSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrontierTolSweep, ErrorBoundedAndWorkShrinksWithLargerTolerance) {
  const double tauF = GetParam();
  auto opt = testOptions();
  opt.frontierTolerance = tauF;
  const auto scenario = makeScenario(buildFamily("road", 500), 1e-3, 501, opt);
  const auto ref = referenceRanks(scenario.curr);
  const auto r = dfLF(scenario.prev, scenario.curr, scenario.batch,
                      scenario.prevRanks, opt);
  ASSERT_TRUE(r.converged);
  // Bound derived from the stopping rules (see error.hpp): the per-vertex
  // freeze at tau contributes tau / (1 - alpha), and every expansion
  // skipped at tau_f leaves up to tau_f unpropagated per in-neighbour,
  // contributing tau_f * alpha / (1 - alpha). 8x slack for scheduling
  // jitter; the largest tau_f in this sweep equals tau itself.
  constexpr double kSlack = 8.0;
  EXPECT_LT(linfNorm(r.ranks, ref),
            kSlack * (asyncToleranceBound(opt.tolerance, opt.alpha) +
                      syncToleranceBound(tauF, opt.alpha)));
}

INSTANTIATE_TEST_SUITE_P(Tolerances, FrontierTolSweep,
                         ::testing::Values(0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10),
                         [](const ::testing::TestParamInfo<double>& info) {
                           const double v = info.param;
                           if (v == 0.0) return std::string("zero");
                           // std::string + over const char* trips GCC 12's
                           // -Wrestrict false positive (PR 105329).
                           std::string name("e");
                           name += std::to_string(
                               -static_cast<int>(std::round(std::log10(v))));
                           return name;
                         });

TEST(FrontierTolProperty, LargerToleranceNeverMarksMore) {
  const auto opt = testOptions();
  const auto scenario = makeScenario(buildFamily("road", 600), 1e-3, 601, opt);
  std::uint64_t lastAffected = std::numeric_limits<std::uint64_t>::max();
  for (double tauF : {0.0, 1e-13, 1e-11, 1e-9}) {
    auto o = opt;
    o.frontierTolerance = tauF;
    const auto r = dfBB(scenario.prev, scenario.curr, scenario.batch,
                        scenario.prevRanks, o);
    EXPECT_LE(r.affectedVertices, lastAffected) << "tauF=" << tauF;
    lastAffected = r.affectedVertices;
  }
}

// ----- DF-LF certificate across service-style step sequences ---------------

struct StepSequenceParam {
  double batchFraction;
  int threads;
  std::uint64_t seed;  // graph and batches
};

class DfStepSequence : public ::testing::TestWithParam<StepSequenceParam> {};

// The service's pull path: one LfEngineState, a full solve, then batch
// steps through detail::lfDynamicStep with DF semantics. Neighbours are
// woken at tau, not tau_f, so a step can end with unpulled in-neighbour
// moves of up to tau (error.hpp); the certificate must still hold after
// every step, at slack 1.0, so error cannot build up across steps.
TEST_P(DfStepSequence, EveryConvergedStepMeetsToleranceBound) {
  constexpr int kSteps = 6;
  constexpr int kRmatScale = 11;
  const auto& p = GetParam();
  auto opt = testOptions();
  opt.numThreads = p.threads;
  SCOPED_TRACE("seed=" + std::to_string(p.seed));
  Rng rng(p.seed);
  const VertexId n = VertexId{1} << kRmatScale;
  auto es = generateRmat(kRmatScale, 16000, rng);
  appendSelfLoops(es, n);
  auto graph = DynamicDigraph::fromEdges(n, es);
  detail::LfEngineState state(n);
  state.seedRanks(std::vector<double>(n, 1.0 / static_cast<double>(n)));
  CsrGraph curr = graph.toCsr();
  ASSERT_TRUE(detail::lfFullStep(state, curr, opt, nullptr).converged);
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    const BatchUpdate batch = generateBatchFraction(graph, p.batchFraction, rng);
    const CsrGraph prev = std::move(curr);
    graph.applyBatch(batch);
    curr = graph.toCsr();
    const auto r = detail::lfDynamicStep(state, prev, curr, batch, opt,
                                         nullptr, /*traverse=*/false,
                                         /*expandFrontier=*/true, "test");
    ASSERT_TRUE(r.converged);
    EXPECT_LE(linfNorm(state.ranks.toVector(), referenceRanks(curr, opt.alpha)),
              r.toleranceBound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FractionsAndThreads, DfStepSequence,
    ::testing::Values(StepSequenceParam{1e-5, 1, 801}, StepSequenceParam{1e-5, 4, 802},
                      StepSequenceParam{1e-4, 1, 803}, StepSequenceParam{1e-4, 4, 804},
                      StepSequenceParam{1e-3, 1, 805}, StepSequenceParam{1e-3, 4, 806},
                      StepSequenceParam{1e-2, 1, 807}, StepSequenceParam{1e-2, 4, 808}),
    [](const ::testing::TestParamInfo<StepSequenceParam>& info) {
      std::string name("e");
      name += std::to_string(
          -static_cast<int>(std::round(std::log10(info.param.batchFraction))));
      name += "_t" + std::to_string(info.param.threads);
      return name;
    });

// ----- Batch composition sweep ---------------------------------------------

class CompositionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CompositionSweep, DeletionShareDoesNotBreakAccuracy) {
  const double share = GetParam();
  const auto opt = testOptions();
  auto base = buildFamily("web", 700);
  Rng rng(701);
  BatchGenOptions bg;
  bg.deletionShare = share;
  const auto batch = generateBatch(base, 50, rng, bg);
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, opt);
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : {Approach::NDLF, Approach::DFBB, Approach::DFLF}) {
    const auto r = runOnScenario(a, scenario, opt);
    ASSERT_TRUE(r.converged) << approachName(a);
    EXPECT_LT(linfNorm(r.ranks, ref), 1e-6) << approachName(a);
  }
}

INSTANTIATE_TEST_SUITE_P(Shares, CompositionSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "del" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

}  // namespace
}  // namespace lfpr
