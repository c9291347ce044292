// Tests for the dynamic engines (ND / DT / DF, BB and LF): accuracy
// against reference ranks on the updated graph, marking semantics,
// stability under delete-then-reinsert, input validation.
#include <gtest/gtest.h>

#include <set>

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
  opt.chunkSize = 64;
  return opt;
}

DynamicDigraph rmatBase(int scale, EdgeId edges, std::uint64_t seed) {
  Rng rng(seed);
  auto es = generateRmat(scale, edges, rng);
  appendSelfLoops(es, VertexId{1} << scale);
  return DynamicDigraph::fromEdges(VertexId{1} << scale, es);
}

constexpr Approach kDynamicApproaches[] = {Approach::NDBB, Approach::NDLF,
                                           Approach::DTBB, Approach::DTLF,
                                           Approach::DFBB, Approach::DFLF};

TEST(DynamicPageRank, AllApproachesMatchReferenceAfterMixedBatch) {
  const auto scenario = makeScenario(rmatBase(9, 4000, 1), 1e-2, 2, testOptions());
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : kDynamicApproaches) {
    const auto r = runOnScenario(a, scenario, testOptions());
    ASSERT_TRUE(r.converged) << approachName(a);
    EXPECT_LT(linfNorm(r.ranks, ref), 1e-6) << approachName(a);
  }
}

TEST(DynamicPageRank, InsertOnlyBatch) {
  auto base = rmatBase(8, 1500, 3);
  Rng rng(4);
  BatchUpdate batch;
  BatchGenOptions bg;
  bg.deletionShare = 0.0;
  batch = generateBatch(base, 20, rng, bg);
  EXPECT_TRUE(batch.deletions.empty());
  ASSERT_FALSE(batch.insertions.empty());
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, testOptions());
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : kDynamicApproaches)
    EXPECT_LT(linfNorm(runOnScenario(a, scenario, testOptions()).ranks, ref), 1e-6)
        << approachName(a);
}

TEST(DynamicPageRank, DeleteOnlyBatch) {
  auto base = rmatBase(8, 1500, 5);
  Rng rng(6);
  BatchGenOptions bg;
  bg.deletionShare = 1.0;
  const auto batch = generateBatch(base, 20, rng, bg);
  EXPECT_TRUE(batch.insertions.empty());
  ASSERT_FALSE(batch.deletions.empty());
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, testOptions());
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : kDynamicApproaches)
    EXPECT_LT(linfNorm(runOnScenario(a, scenario, testOptions()).ranks, ref), 1e-6)
        << approachName(a);
}

TEST(DynamicPageRank, EmptyBatchConvergesImmediately) {
  auto base = rmatBase(8, 1500, 7);
  const auto scenario = makeScenarioWithBatch(std::move(base), BatchUpdate{}, testOptions());
  for (Approach a : {Approach::DTBB, Approach::DTLF, Approach::DFBB, Approach::DFLF}) {
    const auto r = runOnScenario(a, scenario, testOptions());
    EXPECT_TRUE(r.converged) << approachName(a);
    EXPECT_EQ(r.affectedVertices, 0u) << approachName(a);
    EXPECT_LE(r.iterations, 1) << approachName(a);
    EXPECT_LT(linfNorm(r.ranks, scenario.prevRanks), 1e-12) << approachName(a);
  }
}

// With an effectively infinite frontier tolerance DF never expands, so the
// affected set is exactly the initial marking: out-neighbours (in prev and
// curr) of each batch source.
TEST(DynamicFrontier, InitialMarkingIsOutNeighboursOfSources) {
  // Chain 0->1->2->3->4 plus self-loops.
  std::vector<Edge> es;
  for (VertexId v = 0; v + 1 < 5; ++v) es.push_back({v, static_cast<VertexId>(v + 1)});
  appendSelfLoops(es, 5);
  auto base = DynamicDigraph::fromEdges(5, es);

  BatchUpdate batch;
  batch.insertions = {{1, 3}};  // source u = 1
  auto opt = testOptions();
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, opt);

  opt.frontierTolerance = 1e18;  // suppress expansion
  for (Approach a : {Approach::DFBB, Approach::DFLF}) {
    const auto r = runOnScenario(a, scenario, opt);
    // out(1) in prev = {1, 2}; in curr = {1, 2, 3}; union = {1, 2, 3}.
    EXPECT_EQ(r.affectedVertices, 3u) << approachName(a);
  }
}

TEST(DynamicFrontier, ExpansionGrowsAffectedSet) {
  const auto scenario = makeScenario(rmatBase(9, 4000, 8), 1e-2, 9, testOptions());
  auto suppressed = testOptions();
  suppressed.frontierTolerance = 1e18;
  auto normal = testOptions();  // tau_f = 1e-13
  const auto rs = dfLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, suppressed);
  const auto rn = dfLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, normal);
  EXPECT_GT(rn.affectedVertices, rs.affectedVertices);
}

// The Dynamic Traversal approach marks everything *reachable* from the
// updated region, which on a chain is the whole downstream suffix.
TEST(DynamicTraversal, MarksReachableSuffixOfChain) {
  std::vector<Edge> es;
  constexpr VertexId n = 10;
  for (VertexId v = 0; v + 1 < n; ++v) es.push_back({v, static_cast<VertexId>(v + 1)});
  appendSelfLoops(es, n);
  auto base = DynamicDigraph::fromEdges(n, es);

  BatchUpdate batch;
  batch.insertions = {{4, 6}};  // source u = 4
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, testOptions());
  for (Approach a : {Approach::DTBB, Approach::DTLF}) {
    const auto r = runOnScenario(a, scenario, testOptions());
    // Reachable from out(4) = {4,5} (prev) ∪ {4,5,6} (curr): vertices 4..9.
    EXPECT_EQ(r.affectedVertices, 6u) << approachName(a);
  }
}

TEST(DynamicFrontier, AffectedNoMoreThanTraversal) {
  const auto scenario = makeScenario(rmatBase(9, 4000, 10), 1e-3, 11, testOptions());
  const auto df = dfLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, testOptions());
  const auto dt = dtLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, testOptions());
  EXPECT_LE(df.affectedVertices, dt.affectedVertices);
}

TEST(DynamicFrontier, FewerRankUpdatesThanNaiveDynamicOnLocalUpdate) {
  // A tiny update on a road-like grid: rank perturbations decay
  // geometrically, so the frontier is a ball of radius roughly
  // ln(Delta0/tau_f) / ln(1/decay) ~ 50 hops. The grid must be much wider
  // than that radius for DF to pay off — the reason the paper's DF wins
  // are largest on huge-diameter road/k-mer graphs and smallest on
  // small-diameter social networks (Section 5.2.2).
  Rng rng(12);
  constexpr VertexId kSide = 200;
  auto es = symmetrize(generateGrid(kSide, kSide, 0.0, rng));
  appendSelfLoops(es, kSide * kSide);
  auto base = DynamicDigraph::fromEdges(kSide * kSide, es);
  Rng batchRng(13);
  const auto batch = generateBatch(base, 2, batchRng);
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, testOptions());
  const auto nd = ndLF(scenario.curr, scenario.prevRanks, testOptions());
  const auto df = dfLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, testOptions());
  ASSERT_TRUE(nd.converged);
  ASSERT_TRUE(df.converged);
  EXPECT_LT(df.rankUpdates, nd.rankUpdates / 2);
  EXPECT_LT(df.affectedVertices, scenario.curr.numVertices() / 2);
}

TEST(DynamicFrontier, LockFreeDoesAboutBarrierBasedWorkOnLocalUpdate) {
  // DF-LF wakes an out-neighbour (marks it unconverged) only when a rank
  // moves by more than tau, DF-BB's rule; tau_f only grows the frontier.
  // On one thread, where both counts are deterministic, it then does
  // about DF-BB's rank updates on a local batch. Waking at tau_f would
  // iterate the frontier to tau/1000, 2.8x DF-BB's updates here.
  constexpr double kMaxUpdatesOverDfBb = 1.5;
  Rng rng(12);
  constexpr VertexId kSide = 200;
  auto es = symmetrize(generateGrid(kSide, kSide, 0.0, rng));
  appendSelfLoops(es, kSide * kSide);
  auto base = DynamicDigraph::fromEdges(kSide * kSide, es);
  Rng batchRng(13);
  const auto batch = generateBatch(base, 2, batchRng);
  auto opt = testOptions();
  opt.numThreads = 1;
  const auto scenario = makeScenarioWithBatch(std::move(base), batch, opt);
  const auto bb = dfBB(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, opt);
  const auto lf = dfLF(scenario.prev, scenario.curr, scenario.batch,
                       scenario.prevRanks, opt);
  ASSERT_TRUE(bb.converged);
  ASSERT_TRUE(lf.converged);
  EXPECT_LE(static_cast<double>(lf.rankUpdates),
            kMaxUpdatesOverDfBb * static_cast<double>(bb.rankUpdates))
      << "DFLF " << lf.rankUpdates << " vs DFBB " << bb.rankUpdates;
}

TEST(DynamicPageRank, StabilityDeleteThenReinsert) {
  // Section 5.2.3: delete a batch, update, re-insert it, update again; the
  // final ranks must match the original ones.
  auto base = rmatBase(9, 4000, 14);
  const auto opt = testOptions();
  const auto g0 = base.toCsr();
  const auto originalRanks = staticBB(g0, opt).ranks;

  Rng rng(15);
  BatchGenOptions bg;
  bg.deletionShare = 1.0;
  const auto delBatch = generateBatch(base, 40, rng, bg);

  base.applyBatch(delBatch);
  const auto g1 = base.toCsr();
  const auto afterDelete =
      dfLF(g0, g1, delBatch, originalRanks, opt);
  ASSERT_TRUE(afterDelete.converged);

  const auto insBatch = delBatch.inverted();
  base.applyBatch(insBatch);
  const auto g2 = base.toCsr();
  ASSERT_EQ(g2, g0);  // graph restored
  const auto afterReinsert = dfLF(g1, g2, insBatch, afterDelete.ranks, opt);
  ASSERT_TRUE(afterReinsert.converged);
  EXPECT_LT(linfNorm(afterReinsert.ranks, originalRanks), 1e-6);
}

TEST(DynamicPageRank, AllLockFreeEnginesMatchReference) {
  // Every lock-free pull engine must land within the error.hpp
  // stopping-rule bound of the reference ranks.
  const auto scenario = makeScenario(rmatBase(9, 4000, 30), 1e-2, 31, testOptions());
  const auto ref = referenceRanks(scenario.curr);
  const double bound =
      8.0 * asyncToleranceBound(testOptions().tolerance, testOptions().alpha);
  for (Approach a :
       {Approach::StaticLF, Approach::NDLF, Approach::DTLF, Approach::DFLF}) {
    const auto r = runOnScenario(a, scenario, testOptions());
    ASSERT_TRUE(r.converged) << approachName(a);
    EXPECT_LT(linfNorm(r.ranks, ref), bound) << approachName(a);
  }
}

TEST(DynamicPageRank, ProtocolStatsCountedInEveryBuild) {
  const auto scenario = makeScenario(rmatBase(8, 1500, 37), 1e-2, 38, testOptions());
  const auto r = dfLF(scenario.prev, scenario.curr, scenario.batch,
                      scenario.prevRanks, testOptions());
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.rankUpdates, 0u);
  EXPECT_GT(r.protocolStats.rePulls, 0u);
  EXPECT_GT(r.protocolStats.flagRmws, 0u);
  EXPECT_EQ(r.protocolStats.activations, 0u) << "pull engines activate nothing";
  EXPECT_EQ(r.protocolStats.residualPushes, 0u) << "pull engines push nothing";

  const auto push = deltaPush(scenario.prev, scenario.curr, scenario.batch,
                              scenario.prevRanks, testOptions());
  ASSERT_TRUE(push.converged);
  EXPECT_GT(push.rankUpdates, 0u);
  EXPECT_GT(push.protocolStats.residualPushes, 0u);
  EXPECT_GT(push.protocolStats.activations, 0u);
}

TEST(DynamicPageRank, PerChunkConvergenceAblation) {
  const auto scenario = makeScenario(rmatBase(9, 4000, 16), 1e-2, 17, testOptions());
  auto opt = testOptions();
  opt.perChunkConvergence = true;
  const auto ref = referenceRanks(scenario.curr);
  const auto r = dfLF(scenario.prev, scenario.curr, scenario.batch,
                      scenario.prevRanks, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(linfNorm(r.ranks, ref), 1e-6);
}

TEST(DynamicPageRank, SequenceOfBatchesStaysAccurate) {
  auto base = rmatBase(8, 1500, 18);
  const auto opt = testOptions();
  auto ranks = staticBB(base.toCsr(), opt).ranks;
  Rng rng(19);
  for (int step = 0; step < 4; ++step) {
    const auto prev = base.toCsr();
    const auto batch = generateBatch(base, 15, rng);
    base.applyBatch(batch);
    const auto curr = base.toCsr();
    const auto r = dfLF(prev, curr, batch, ranks, opt);
    ASSERT_TRUE(r.converged) << "step " << step;
    ranks = r.ranks;
    EXPECT_LT(linfNorm(ranks, referenceRanks(curr)), 1e-8) << "step " << step;
  }
}

// ----- Input validation ---------------------------------------------------

TEST(DynamicPageRank, RejectsWrongRankVectorSize) {
  const auto scenario = makeScenario(rmatBase(7, 600, 20), 1e-2, 21, testOptions());
  const std::vector<double> bad(3, 0.0);
  EXPECT_THROW(ndBB(scenario.curr, bad, testOptions()), std::invalid_argument);
  EXPECT_THROW(ndLF(scenario.curr, bad, testOptions()), std::invalid_argument);
  EXPECT_THROW(dfBB(scenario.prev, scenario.curr, scenario.batch, bad, testOptions()),
               std::invalid_argument);
  EXPECT_THROW(dfLF(scenario.prev, scenario.curr, scenario.batch, bad, testOptions()),
               std::invalid_argument);
  EXPECT_THROW(dtLF(scenario.prev, scenario.curr, scenario.batch, bad, testOptions()),
               std::invalid_argument);
  EXPECT_THROW(deltaPush(scenario.prev, scenario.curr, scenario.batch, bad, testOptions()),
               std::invalid_argument);
  // MonteCarlo derives its ranks from walks (no prevRanks): a resident
  // state of the wrong size is the same mistake.
  detail::LfEngineState badState(3);
  EXPECT_THROW(detail::lfMonteCarloStep(badState, scenario.prev, scenario.curr,
                                        scenario.batch, testOptions(), nullptr,
                                        "monteCarlo"),
               std::invalid_argument);
}

TEST(DynamicPageRank, RejectsMismatchedSnapshots) {
  const auto a = CsrGraph::fromEdges(3, std::vector<Edge>{{0, 0}, {1, 1}, {2, 2}});
  const auto b = CsrGraph::fromEdges(2, std::vector<Edge>{{0, 0}, {1, 1}});
  const std::vector<double> ranks(3, 1.0 / 3);
  EXPECT_THROW(dfLF(b, a, BatchUpdate{}, ranks, testOptions()), std::invalid_argument);
}

TEST(DynamicPageRank, RejectsOutOfRangeBatchEdges) {
  const auto g = CsrGraph::fromEdges(3, std::vector<Edge>{{0, 0}, {1, 1}, {2, 2}});
  const std::vector<double> ranks(3, 1.0 / 3);
  BatchUpdate batch;
  batch.insertions = {{0, 9}};
  EXPECT_THROW(dfLF(g, g, batch, ranks, testOptions()), std::out_of_range);
  EXPECT_THROW(dfBB(g, g, batch, ranks, testOptions()), std::out_of_range);
  EXPECT_THROW(deltaPush(g, g, batch, ranks, testOptions()), std::out_of_range);
  EXPECT_THROW(monteCarlo(g, g, batch, testOptions()), std::out_of_range);
}

TEST(DynamicPageRank, RunApproachDispatchesEverything) {
  const auto scenario = makeScenario(rmatBase(8, 1500, 22), 1e-2, 23, testOptions());
  const auto ref = referenceRanks(scenario.curr);
  for (Approach a : kAllApproaches) {
    const auto r = runApproach(a, scenario.prev, scenario.curr, scenario.batch,
                               scenario.prevRanks, testOptions());
    ASSERT_TRUE(r.converged) << approachName(a);
    EXPECT_LT(linfNorm(r.ranks, ref), 1e-6) << approachName(a);
  }
}

TEST(ApproachMeta, NamesAndClassification) {
  EXPECT_STREQ(approachName(Approach::DFLF), "DFLF");
  EXPECT_STREQ(approachName(Approach::StaticBB), "StaticBB");
  EXPECT_TRUE(isLockFree(Approach::DFLF));
  EXPECT_FALSE(isLockFree(Approach::DFBB));
  EXPECT_TRUE(isDynamicApproach(Approach::NDBB));
  EXPECT_FALSE(isDynamicApproach(Approach::StaticLF));
}

}  // namespace
}  // namespace lfpr
