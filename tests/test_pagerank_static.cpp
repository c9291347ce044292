// Tests for the static engines (StaticBB / StaticLF) and the reference
// solver: closed-form correctness on tiny graphs, agreement with the
// reference on generated graphs, convergence semantics, scheduling knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <numeric>
#include <vector>

#include "generate/generators.hpp"
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

CsrGraph rmatGraph(int scale, EdgeId edges, std::uint64_t seed) {
  Rng rng(seed);
  auto es = generateRmat(scale, edges, rng);
  appendSelfLoops(es, VertexId{1} << scale);
  return CsrGraph::fromEdges(VertexId{1} << scale, es);
}

TEST(StaticPageRank, EmptyGraph) {
  const CsrGraph g;
  EXPECT_TRUE(staticBB(g).converged);
  EXPECT_TRUE(staticLF(g).converged);
  EXPECT_TRUE(staticBB(g).ranks.empty());
  // Every engine, dynamic ones included, certifies a zero-vertex graph
  // with a finite bound.
  std::vector<Approach> approaches(std::begin(kAllApproaches),
                                   std::end(kAllApproaches));
  approaches.push_back(Approach::DeltaPush);
  approaches.push_back(Approach::MonteCarlo);
  for (const Approach a : approaches) {
    const auto r = runApproach(a, g, g, {}, {}, testOptions());
    EXPECT_TRUE(r.converged) << approachName(a);
    EXPECT_TRUE(std::isfinite(r.toleranceBound)) << approachName(a);
    EXPECT_TRUE(r.ranks.empty()) << approachName(a);
  }
}

TEST(StaticPageRank, SingleVertexWithSelfLoopHasRankOne) {
  const auto g = CsrGraph::fromEdges(1, std::vector<Edge>{{0, 0}});
  const auto r = staticBB(g, testOptions());
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_NEAR(r.ranks[0], 1.0, 1e-12);
  EXPECT_TRUE(r.converged);
}

// Two vertices, self-loops, plus 0 -> 1. Closed form with alpha = 0.85:
// r0 = 3/23, r1 = 20/23 (see the derivation in the test body).
TEST(StaticPageRank, TwoVertexChainMatchesClosedForm) {
  // r0 = 0.075 + 0.85*r0/2          => r0 = 0.075 / 0.575 = 3/23
  // r1 = 0.075 + 0.85*(r0/2 + r1)   => r1 = (0.075 + 0.425*r0)/0.15 = 20/23
  const auto g = CsrGraph::fromEdges(2, std::vector<Edge>{{0, 0}, {0, 1}, {1, 1}});
  for (const auto& r : {staticBB(g, testOptions()), staticLF(g, testOptions())}) {
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.ranks[0], 3.0 / 23.0, 1e-9);
    EXPECT_NEAR(r.ranks[1], 20.0 / 23.0, 1e-9);
  }
}

TEST(StaticPageRank, CycleIsUniform) {
  std::vector<Edge> es;
  constexpr VertexId n = 16;
  for (VertexId v = 0; v < n; ++v) {
    es.push_back({v, static_cast<VertexId>((v + 1) % n)});
    es.push_back({v, v});
  }
  const auto g = CsrGraph::fromEdges(n, es);
  const auto r = staticBB(g, testOptions());
  for (double x : r.ranks) EXPECT_NEAR(x, 1.0 / n, 1e-10);
}

TEST(StaticPageRank, RankMassConservedWithSelfLoops) {
  const auto g = rmatGraph(9, 4000, 1);
  const auto bb = staticBB(g, testOptions());
  const auto lf = staticLF(g, testOptions());
  EXPECT_NEAR(rankSum(bb.ranks), 1.0, 1e-9);
  // The asynchronous engine stops each vertex at per-vertex delta <= tau,
  // so total mass carries an O(n * tau / (1 - alpha)) residual.
  EXPECT_NEAR(rankSum(lf.ranks), 1.0, 1e-6);
}

TEST(StaticPageRank, DeadEndsLeakMassButDoNotCrash) {
  // Without self-loops, vertex 1 is a dead end; the solve must still
  // converge (mass simply leaks, Section 5.1.3 motivates the self-loops).
  const auto g = CsrGraph::fromEdges(2, std::vector<Edge>{{0, 1}});
  const auto r = staticBB(g, testOptions());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.ranks[0], 0.075, 1e-10);
  EXPECT_NEAR(r.ranks[1], 0.075 + 0.85 * 0.075, 1e-10);
  EXPECT_LT(rankSum(r.ranks), 1.0);
}

TEST(StaticPageRank, MatchesReferenceOnRmat) {
  const auto g = rmatGraph(10, 8000, 2);
  const auto ref = referenceRanks(g);
  EXPECT_LT(linfNorm(staticBB(g, testOptions()).ranks, ref), 1e-9);
  EXPECT_LT(linfNorm(staticLF(g, testOptions()).ranks, ref), 1e-6);
}

TEST(StaticPageRank, BBIsDeterministic) {
  const auto g = rmatGraph(9, 4000, 3);
  const auto a = staticBB(g, testOptions());
  const auto b = staticBB(g, testOptions());
  EXPECT_EQ(a.ranks, b.ranks);  // bitwise: synchronous Jacobi
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(StaticPageRank, LFAgreesWithBB) {
  const auto g = rmatGraph(9, 4000, 4);
  const auto bb = staticBB(g, testOptions());
  const auto lf = staticLF(g, testOptions());
  EXPECT_LT(linfNorm(bb.ranks, lf.ranks), 1e-6);
}

TEST(StaticPageRank, LFConvergesInFewerOrEqualIterations) {
  // Asynchronous (Gauss-Seidel-like) propagation uses fresher values, so
  // it should not need *more* sweeps than synchronous Jacobi. The LF
  // `iterations` metric is the highest round any thread *touched*, which
  // racing threads inflate under adversarial scheduling: on an
  // oversubscribed 1-CPU host a thread that drains empty chunk pools
  // while the others are preempted can run many rounds ahead (observed
  // ~1.6x in 25x stress runs at the seed). The guard is 2x + 5 — it
  // still catches the regression class where async needs multiples of
  // the synchronous sweep count.
  const auto g = rmatGraph(10, 8000, 5);
  const auto bb = staticBB(g, testOptions());
  const auto lf = staticLF(g, testOptions());
  EXPECT_LE(lf.iterations, 2 * bb.iterations + 5);
}

TEST(StaticPageRank, RespectsMaxIterations) {
  const auto g = rmatGraph(9, 4000, 6);
  auto opt = testOptions();
  opt.maxIterations = 3;
  const auto bb = staticBB(g, opt);
  EXPECT_FALSE(bb.converged);
  EXPECT_EQ(bb.iterations, 3);
  const auto lf = staticLF(g, opt);
  EXPECT_FALSE(lf.converged);
  EXPECT_LE(lf.iterations, 3);
}

TEST(StaticPageRank, LooserToleranceConvergesFaster) {
  const auto g = rmatGraph(9, 4000, 7);
  auto loose = testOptions();
  loose.tolerance = 1e-4;
  auto tight = testOptions();
  tight.tolerance = 1e-10;
  EXPECT_LT(staticBB(g, loose).iterations, staticBB(g, tight).iterations);
}

TEST(StaticPageRank, CountsRankUpdates) {
  const auto g = rmatGraph(8, 1000, 8);
  const auto r = staticBB(g, testOptions());
  EXPECT_EQ(r.rankUpdates,
            static_cast<std::uint64_t>(r.iterations) * g.numVertices());
}

TEST(StaticPageRank, ReportsBarrierWaitOnlyForBB) {
  const auto g = rmatGraph(9, 4000, 9);
  EXPECT_GE(staticBB(g, testOptions()).waitMs, 0.0);
  EXPECT_EQ(staticLF(g, testOptions()).waitMs, 0.0);
}

TEST(StaticPageRank, StaticScheduleAblationSingleThreadIsExact) {
  // One thread owning the whole range is sequential Gauss-Seidel.
  const auto g = rmatGraph(9, 4000, 10);
  auto opt = testOptions();
  opt.staticSchedule = true;
  opt.numThreads = 1;
  const auto r = staticLF(g, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(linfNorm(r.ranks, referenceRanks(g)), 1e-9);
}

TEST(StaticPageRank, StaticScheduleAblationDriftsUnderOversubscription) {
  // The Eedi-style fixed partition has no pacing between threads: stripes
  // progress unevenly, each stripe re-sweeps whenever another one moves,
  // and under oversubscription the run can spend its round cap before it
  // settles — Section 3.3.2's motivation for dynamic chunk scheduling.
  // Document: it terminates, and its error can exceed the
  // dynamic-schedule engine's by orders of magnitude (the ablation bench
  // quantifies this).
  const auto g = rmatGraph(9, 4000, 10);
  auto opt = testOptions();
  opt.staticSchedule = true;
  opt.numThreads = 8;
  const auto r = staticLF(g, opt);
  // Under pathological scheduling (sanitizer slowdown on few cores) the
  // fixed partition can also exhaust the round cap outright — stripes
  // whose owner finished cannot be re-marked — which is the same
  // documented weakness, so the tight accuracy check applies only when it
  // did converge. Unconditionally, though, the run must terminate with a
  // sane rank vector: every update is a contraction toward the fixpoint
  // from uniform init, so per-vertex ranks stay in (0, 1] and self-loop
  // mass conservation keeps the total near 1 even mid-convergence.
  ASSERT_EQ(r.ranks.size(), g.numVertices());
  for (double x : r.ranks) {
    ASSERT_GT(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
  EXPECT_NEAR(rankSum(r.ranks), 1.0, 0.2);
  if (r.converged) {
    EXPECT_LT(linfNorm(r.ranks, referenceRanks(g)), 0.1);  // bounded, not tight
  }
}

TEST(StaticPageRank, StaticScheduleConvergenceClaimHoldsItsBound) {
  // Regression: a worker whose stripe was clean used to spend its round
  // budget re-sweeping it and leave, and no worker marks another stripe's
  // vertices, so the last worker's scan passed over stale stripes. On
  // this seed, 4 to 50 of every 100 runs claimed convergence with an
  // L-inf error up to 1.4e-2 against a 1e-10 tolerance, depending on
  // the thread count and the host's load. A run may still end
  // unconverged at the round cap; a converged one must hold its
  // certificate. 4 threads (one per core on a 4-core host) usually
  // converge, so the implication is exercised, not vacuous.
  const auto g = rmatGraph(9, 4000, 10);
  const auto ref = referenceRanks(g);
  for (const int threads : {4, 8}) {
    auto opt = testOptions();
    opt.staticSchedule = true;
    opt.numThreads = threads;
    for (int run = 0; run < 10; ++run) {
      const auto r = staticLF(g, opt);
      if (r.converged) {
        EXPECT_LE(linfNorm(r.ranks, ref), r.toleranceBound)
            << threads << " threads, run " << run;
      }
    }
  }
}

TEST(Reference, IsDeterministicAndNormalized) {
  const auto g = rmatGraph(8, 1000, 11);
  const auto a = referenceRanks(g);
  const auto b = referenceRanks(g);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(rankSum(a), 1.0, 1e-12);
}

TEST(Reference, HigherAlphaSpreadsLessUniformly) {
  const auto g = rmatGraph(8, 1000, 12);
  const auto low = referenceRanks(g, 0.5);
  const auto high = referenceRanks(g, 0.95);
  // With small alpha everything pulls toward 1/n; dispersion grows with
  // alpha.
  auto dispersion = [](const std::vector<double>& r) {
    double lo = 1.0, hi = 0.0;
    for (double x : r) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    return hi - lo;
  };
  EXPECT_LT(dispersion(low), dispersion(high));
}

TEST(ErrorMetrics, Basics) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.5, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(linfNorm(a, b), 1.0);
  EXPECT_DOUBLE_EQ(l1Norm(a, b), 1.5);
  EXPECT_DOUBLE_EQ(rankSum(a), 6.0);
  EXPECT_THROW(linfNorm(a, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(l1Norm(a, std::vector<double>{1.0}), std::invalid_argument);
}

// ----- Parameterized sweeps: chunk sizes x thread counts -----------------

struct SweepParam {
  std::size_t chunkSize;
  int threads;
};

class StaticSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StaticSweep, BothEnginesConvergeToReference) {
  const auto [chunk, threads] = GetParam();
  const auto g = rmatGraph(9, 4000, 13);
  const auto ref = referenceRanks(g);
  PageRankOptions opt;
  opt.chunkSize = chunk;
  opt.numThreads = threads;
  const auto bb = staticBB(g, opt);
  const auto lf = staticLF(g, opt);
  ASSERT_TRUE(bb.converged);
  ASSERT_TRUE(lf.converged);
  EXPECT_LT(linfNorm(bb.ranks, ref), 1e-9);
  EXPECT_LT(linfNorm(lf.ranks, ref), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    ChunkAndThreads, StaticSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{1, 4}, SweepParam{16, 2},
                      SweepParam{64, 4}, SweepParam{2048, 4}, SweepParam{2048, 8},
                      SweepParam{1 << 20, 4}, SweepParam{64, 8}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "chunk" + std::to_string(info.param.chunkSize) + "_t" +
             std::to_string(info.param.threads);
    });

// ----- Parameterized sweep: alpha ----------------------------------------

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, MatchesReference) {
  const double alpha = GetParam();
  const auto g = rmatGraph(9, 4000, 14);
  PageRankOptions opt;
  opt.alpha = alpha;
  opt.numThreads = 4;
  opt.chunkSize = 64;
  const auto ref = referenceRanks(g, alpha);
  // Bounds derived from the stopping rule (see error.hpp): the engines
  // stop at per-vertex delta <= tau, which bounds the L-inf rank error by
  // tau * alpha / (1 - alpha) (synchronous) resp. tau / (1 - alpha)
  // (asynchronous per-vertex freeze). The 8x slack absorbs scheduling
  // jitter — measured worst cases sit within ~1x of the raw bounds.
  constexpr double kSlack = 8.0;
  EXPECT_LT(linfNorm(staticBB(g, opt).ranks, ref),
            kSlack * syncToleranceBound(opt.tolerance, alpha));
  EXPECT_LT(linfNorm(staticLF(g, opt).ranks, ref),
            kSlack * asyncToleranceBound(opt.tolerance, alpha));
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep, ::testing::Values(0.5, 0.7, 0.85, 0.95),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "alpha" +
                                  std::to_string(static_cast<int>(info.param * 100));
                         });

}  // namespace
}  // namespace lfpr
