// Monte Carlo walk-store engine tests (PR 9). The engine is *approximate*
// by design, so the accuracy assertions compare against the advertised
// statistical bound mcL1ErrorBound(alpha, R) — never the exact engines'
// §4.5 certificates — while the structural assertions (walk shapes after
// dead-end truncation, whole-out-neighbourhood deletion, claim/repair
// bookkeeping) and the determinism contract (same seed + batch schedule
// => bit-identical walk store, regardless of thread count, across a
// service restart) are exact. All RNG is counter-based and seeded, so
// every "statistical" assertion here is deterministic in practice: a
// passing seed passes forever.
//
// The AccuracyDrift test doubles as the nightly mc-accuracy-drift lane:
// LFPR_MC_DRIFT_SCALE=1 lifts it from the tier-1 smoke size to the
// scale-1 dataset replay (see .github/workflows/nightly.yml).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "generate/batch_gen.hpp"
#include "generate/generators.hpp"
#include "graph/dynamic_digraph.hpp"
#include "harness/datasets.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/monte_carlo.hpp"
#include "pagerank/error.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/reference.hpp"
#include "service/rank_service.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

namespace fs = std::filesystem;

constexpr VertexId kVertices = VertexId{1} << 10;

DynamicDigraph makeTestDigraph(std::uint64_t seed) {
  Rng rng(seed);
  auto edges = generateRmat(10, 8 * kVertices, rng);
  appendSelfLoops(edges, kVertices);
  return DynamicDigraph::fromEdges(kVertices, edges);
}

PageRankOptions mcOptions(int walksPerVertex, int numThreads = 4) {
  PageRankOptions opt;
  opt.numThreads = numThreads;
  opt.mcWalksPerVertex = walksPerVertex;
  opt.mcMaxWalkLength = 32;
  opt.mcSeed = 0x5eedULL;
  return opt;
}

/// Exact personalized PageRank for one root by dense power iteration:
/// p = (1 - alpha) e_root + alpha P^T p, P row-substochastic over the
/// out-adjacency (dead ends absorb) — the same absorbing model the
/// truncated walks estimate.
std::vector<double> exactPpr(const CsrGraph& g, VertexId root, double alpha) {
  const std::size_t n = g.numVertices();
  std::vector<double> p(n, 0.0), next(n);
  p[root] = 1.0;
  for (int it = 0; it < 200; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    next[root] += 1.0 - alpha;
    for (std::size_t u = 0; u < n; ++u) {
      const auto out = g.out(static_cast<VertexId>(u));
      if (out.empty() || p[u] == 0.0) continue;
      const double share = alpha * p[u] / static_cast<double>(out.size());
      for (const VertexId v : out) next[v] += share;
    }
    p.swap(next);
  }
  return p;
}

/// Live walk contents of the store: (len, verts-prefix) per walk. Two
/// stores with equal extracts are bit-identical where it matters (slots
/// past len[w] are scratch).
std::vector<std::vector<VertexId>> walkContents(
    const detail::MonteCarloState& st) {
  std::vector<std::vector<VertexId>> out(st.numWalks);
  for (std::uint32_t w = 0; w < st.numWalks; ++w) {
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    out[w].assign(st.verts.begin() + static_cast<std::ptrdiff_t>(slice),
                  st.verts.begin() +
                      static_cast<std::ptrdiff_t>(slice + st.len[w]));
  }
  return out;
}

// ---------------------------------------------------------------------
// Global accuracy: the advertised statistical bound.

TEST(MonteCarlo, GlobalRanksWithinStatisticalBound) {
  const auto g = makeTestDigraph(90).toCsr();
  const auto opt = mcOptions(/*walksPerVertex=*/64);
  const auto result = monteCarlo(g, g, {}, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.monteCarlo);
  EXPECT_EQ(result.toleranceBound, mcL1ErrorBound(opt.alpha, 64));

  const auto ref = referenceRanks(g, opt.alpha);
  EXPECT_LT(l1Norm(result.ranks, ref), result.toleranceBound);
  // Truncation at mcMaxWalkLength sheds only alpha^32 of the mass.
  EXPECT_NEAR(rankSum(result.ranks), 1.0, 0.05);
}

TEST(MonteCarlo, EmptyGraphConverges) {
  const CsrGraph empty;
  const auto result = monteCarlo(empty, empty, {}, mcOptions(8));
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.monteCarlo);
  EXPECT_TRUE(result.ranks.empty());
}

// ---------------------------------------------------------------------
// Structural edge cases: dead ends, self-loops, emptied neighbourhoods.

TEST(MonteCarlo, DeadEndRootWalksStopAtRoot) {
  // Vertex 3 has no out-edges at all (no self-loop): every walk rooted
  // there must be the single-position walk {3}.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 3},
                                   {1, 3}, {0, 0}, {1, 1}, {2, 2}};
  const auto g = DynamicDigraph::fromEdges(4, edges).toCsr();
  const auto opt = mcOptions(/*walksPerVertex=*/32);

  detail::LfEngineState state(g.numVertices());
  const auto result =
      detail::lfMonteCarloStep(state, g, g, {}, opt, nullptr, "test");
  ASSERT_TRUE(result.converged);
  ASSERT_NE(state.monteCarlo, nullptr);

  const auto& st = *state.monteCarlo;
  const std::uint32_t perRoot = st.walksPerRoot();
  for (std::uint32_t i = 0; i < perRoot; ++i) {
    const std::uint32_t w = 3 * perRoot + i;
    EXPECT_EQ(st.len[w], 1) << "walk " << w << " left a dead end";
    EXPECT_EQ(st.verts[static_cast<std::size_t>(w) * st.stride], 3u);
  }
  // And no walk from anywhere continues *through* the dead end.
  for (std::uint32_t w = 0; w < st.numWalks; ++w) {
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    for (std::size_t i = 0; i + 1 < st.len[w]; ++i)
      EXPECT_NE(st.verts[slice + i], 3u);
  }
  for (const double r : state.ranks.toVector()) EXPECT_TRUE(std::isfinite(r));
}

TEST(MonteCarlo, SelfLoopOnlyVertexKeepsItsWalks) {
  // Vertex 3's only out-edge is its self-loop: its walks never leave,
  // so its personalized distribution is a point mass at itself.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 0},
                                   {1, 1}, {2, 2}, {3, 3}};
  const auto g = DynamicDigraph::fromEdges(4, edges).toCsr();
  const auto opt = mcOptions(/*walksPerVertex=*/32);

  detail::LfEngineState state(g.numVertices());
  ASSERT_TRUE(
      detail::lfMonteCarloStep(state, g, g, {}, opt, nullptr, "test").converged);
  const auto& st = *state.monteCarlo;
  const std::uint32_t perRoot = st.walksPerRoot();
  for (std::uint32_t i = 0; i < perRoot; ++i) {
    const std::uint32_t w = 3 * perRoot + i;
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    for (std::size_t j = 0; j < st.len[w]; ++j)
      EXPECT_EQ(st.verts[slice + j], 3u);
  }
  const auto index = detail::buildPprIndex(st);
  const auto top = index.topK(3, 2);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].vertex, 3u);
  EXPECT_EQ(top.size(), 1u) << "a point mass has exactly one support vertex";
}

TEST(MonteCarlo, WholeOutNeighbourhoodDeletionTruncatesAtVertex) {
  auto g = makeTestDigraph(91);
  const auto prev = g.toCsr();
  // One batch deletes EVERY out-edge of vertex 7 (self-loop included):
  // 7 becomes a dead end in one step, the hardest repair shape — every
  // walk visiting 7 must truncate exactly there.
  const VertexId u = 7;
  BatchUpdate batch;
  for (const VertexId v : prev.out(u)) batch.deletions.push_back({u, v});
  ASSERT_GE(batch.size(), 2u) << "seed must give vertex 7 several out-edges";
  g.applyBatch(batch);
  const auto curr = g.toCsr();
  ASSERT_EQ(curr.outDegree(u), 0u);

  const auto opt = mcOptions(/*walksPerVertex=*/64);
  detail::LfEngineState state(prev.numVertices());
  ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr,
                                       "test")
                  .converged);
  const auto result =
      detail::lfMonteCarloStep(state, prev, curr, batch, opt, nullptr, "test");
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.affectedVertices, 1u) << "every batch edge shares source 7";
  EXPECT_GT(result.rankUpdates, 0u) << "walks through 7 must be repaired";

  // u may now appear only as a walk's FINAL position.
  const auto& st = *state.monteCarlo;
  for (std::uint32_t w = 0; w < st.numWalks; ++w) {
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    for (std::size_t i = 0; i + 1 < st.len[w]; ++i)
      EXPECT_NE(st.verts[slice + i], u) << "walk " << w << " walked out of a "
                                           "dead end";
  }
  // And the repaired store still estimates the new graph's ranks.
  EXPECT_LT(l1Norm(state.ranks.toVector(), referenceRanks(curr, opt.alpha)),
            mcL1ErrorBound(opt.alpha, opt.mcWalksPerVertex));
}

// ---------------------------------------------------------------------
// Determinism: the (seed, batch schedule) contract.

TEST(MonteCarlo, DeterministicAcrossRunsAndThreadCounts) {
  // Same seed + same batch schedule => bit-identical walk store, visit
  // counts, and ranks — run twice at 4 threads AND once at 1 thread
  // (claims are idempotent, visit updates are order-independent ±1.0
  // fetch-adds, so the interleaving cannot leak into the store).
  const auto runSchedule = [](int numThreads) {
    auto g = makeTestDigraph(92);
    const auto opt = mcOptions(/*walksPerVertex=*/8, numThreads);
    detail::LfEngineState state(g.numVertices());
    auto prev = g.toCsr();
    EXPECT_TRUE(detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr,
                                         "test")
                    .converged);
    Rng rng(93);
    std::vector<std::uint64_t> fingerprints{state.monteCarlo->fingerprint()};
    for (int b = 0; b < 4; ++b) {
      const auto batch = generateBatch(g, 200, rng);
      g.applyBatch(batch);
      const auto curr = g.toCsr();
      EXPECT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt,
                                           nullptr, "test")
                      .converged);
      fingerprints.push_back(state.monteCarlo->fingerprint());
      prev = curr;
    }
    return std::tuple(fingerprints, walkContents(*state.monteCarlo),
                      state.ranks.toVector());
  };

  const auto [fpA, walksA, ranksA] = runSchedule(4);
  const auto [fpB, walksB, ranksB] = runSchedule(4);
  const auto [fpC, walksC, ranksC] = runSchedule(1);
  EXPECT_EQ(fpA, fpB);
  EXPECT_EQ(walksA, walksB);
  EXPECT_EQ(ranksA, ranksB);
  EXPECT_EQ(fpA, fpC) << "thread count leaked into the walk store";
  EXPECT_EQ(walksA, walksC);
  EXPECT_EQ(ranksA, ranksC);
  // Epochs advanced: repairs actually changed the store along the way.
  EXPECT_NE(fpA.front(), fpA.back());
}

TEST(MonteCarlo, CrashedRepairWorkersLeaveAnIdenticalStore) {
  // Crash polls sit at walk boundaries and the sequential completion pass
  // re-walks every claim a crashed worker abandoned, so a repair step
  // with k of 4 workers crash-stopped must leave exactly the store (and
  // ranks) of a healthy run — k = 4 leaves the whole repair set to the
  // completion pass.
  const auto runSchedule = [](int numCrashing, std::uint64_t seed) {
    auto g = makeTestDigraph(92);
    const auto opt = mcOptions(/*walksPerVertex=*/8, /*numThreads=*/4);
    detail::LfEngineState state(g.numVertices());
    auto prev = g.toCsr();
    EXPECT_TRUE(detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr,
                                         "test")
                    .converged);
    Rng rng(93);
    int crashed = 0;
    for (int b = 0; b < 4; ++b) {
      const auto batch = generateBatch(g, 200, rng);
      g.applyBatch(batch);
      const auto curr = g.toCsr();
      FaultInjector fault(
          4, makeCrashConfig(4, numCrashing, 1, 400, seed + 17 * b));
      EXPECT_TRUE(detail::lfMonteCarloStep(
                      state, prev, curr, batch, opt,
                      numCrashing > 0 ? &fault : nullptr, "test")
                      .converged)
          << "step " << b;
      crashed += fault.numCrashed();
      prev = curr;
    }
    return std::tuple(state.monteCarlo->fingerprint(), state.ranks.toVector(),
                      crashed);
  };

  const auto [healthyFp, healthyRanks, healthyCrashes] = runSchedule(0, 0);
  EXPECT_EQ(healthyCrashes, 0);
  int totalCrashes = 0;
  for (const int k : {1, 3, 4}) {
    for (const std::uint64_t seed : {11u, 29u}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " seed=" << seed);
      const auto [fp, ranks, crashes] = runSchedule(k, seed);
      totalCrashes += crashes;
      EXPECT_EQ(fp, healthyFp);
      EXPECT_EQ(ranks, healthyRanks);
    }
  }
  // Whether a given worker reaches its crash point depends on how much
  // work it wins, but with all four workers scheduled to crash within
  // 400 of ~4400 repairs per step, some crash every time.
  EXPECT_GT(totalCrashes, 0) << "no worker crashed: the schedules are vacuous";
}

TEST(MonteCarlo, IndexFingerprintMatchesStore) {
  // A snapshot's mcFingerprint() hashes its PprIndex, not the live
  // store: the index must reproduce the store's fingerprint bit for bit
  // after the build, after every repair, at any thread count, and for a
  // store that went through the checkpoint image.
  for (const int numThreads : {1, 4}) {
    SCOPED_TRACE(numThreads);
    auto g = makeTestDigraph(92);
    const auto opt = mcOptions(/*walksPerVertex=*/8, numThreads);
    detail::LfEngineState state(g.numVertices());
    auto prev = g.toCsr();
    ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr,
                                         "test")
                    .converged);
    EXPECT_EQ(detail::buildPprIndex(*state.monteCarlo, numThreads).fingerprint(),
              state.monteCarlo->fingerprint())
        << "after the build";
    Rng rng(93);
    for (int b = 0; b < 4; ++b) {
      const auto batch = generateBatch(g, 200, rng);
      g.applyBatch(batch);
      const auto curr = g.toCsr();
      ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt,
                                           nullptr, "test")
                      .converged);
      EXPECT_EQ(
          detail::buildPprIndex(*state.monteCarlo, numThreads).fingerprint(),
          state.monteCarlo->fingerprint())
          << "after repair " << b;
      prev = curr;
    }
    const auto restored =
        detail::mcDeserializeStore(detail::mcSerializeStore(*state.monteCarlo));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(detail::buildPprIndex(*restored, numThreads).fingerprint(),
              restored->fingerprint())
        << "after the image round trip";
    EXPECT_EQ(restored->fingerprint(), state.monteCarlo->fingerprint());
  }
}

TEST(Service, MonteCarloRestartRebuildsIdenticalStore) {
  // Restart determinism end-to-end: run A ingests k batches through a
  // journaled MonteCarlo service (journal-only durability, one batch
  // per step); run B recovers from the same directory — initial build
  // plus k replayed repairs is the SAME epoch schedule, so the walk
  // store fingerprint and the published ranks must match bit-for-bit.
  const fs::path dir =
      fs::temp_directory_path() /
      ("lfpr-mc-restart-" + std::to_string(::getpid()));
  fs::create_directories(dir);

  ServiceOptions opt;
  opt.solver.numThreads = 4;
  opt.solver.mcWalksPerVertex = 8;
  opt.stepEngine = ServiceOptions::StepEngine::MonteCarlo;
  opt.maxBatchesPerStep = 1;
  opt.durability.directory = dir.string();
  opt.durability.fsync = FsyncPolicy::None;
  opt.durability.checkpointEverySolves = 0;  // journal-only: replay all

  const auto initial = makeTestDigraph(94).toCsr();
  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(95);

  std::uint64_t fpA = 0;
  std::vector<double> ranksA;
  {
    RankService service(initial, opt);
    for (int b = 0; b < 3; ++b) {
      const auto batch = generateBatch(offline, 150, rng);
      offline.applyBatch(batch);
      ASSERT_TRUE(service.submit(batch));
      service.waitIdle();  // one batch per epoch: fixed schedule
    }
    const SnapshotView v = service.snapshot();
    ASSERT_TRUE(v->monteCarlo);
    fpA = v->mcFingerprint();
    ranksA = v->ranks;
    ASSERT_NE(fpA, 0u);
  }
  {
    RankService service(initial, opt);
    service.waitIdle();  // recovery replays the journal, one batch/step
    const SnapshotView v = service.snapshot();
    ASSERT_TRUE(v->monteCarlo);
    EXPECT_EQ(v->mcFingerprint(), fpA)
        << "replayed walk store diverged from the original";
    EXPECT_EQ(v->ranks, ranksA);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// Walk-store serialization (PR 10): the WalkStoreImage round trip is
// bit-exact AND resumable — a deserialized store repairs forward
// exactly like the original, which is what lets a restarted service
// continue Monte Carlo repairs instead of rebuilding.

TEST(MonteCarlo, WalkStoreImageRoundTripResumesRepairs) {
  auto g = makeTestDigraph(99);
  const auto opt = mcOptions(/*walksPerVertex=*/8);
  detail::LfEngineState state(g.numVertices());
  auto prev = g.toCsr();
  ASSERT_TRUE(
      detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr, "test")
          .converged);
  Rng rng(100);
  // Two repairs first, so the image carries a non-zero walk epoch and
  // live delta chains — the shape a mid-life checkpoint would persist.
  for (int b = 0; b < 2; ++b) {
    const auto batch = generateBatch(g, 200, rng);
    g.applyBatch(batch);
    const auto curr = g.toCsr();
    ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt,
                                         nullptr, "test")
                    .converged);
    prev = curr;
  }

  const auto img = detail::mcSerializeStore(*state.monteCarlo);
  EXPECT_EQ(img.epoch, 2u);
  EXPECT_EQ(img.numWalks, state.monteCarlo->numWalks);
  auto restored = detail::mcDeserializeStore(img);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->fingerprint(), state.monteCarlo->fingerprint());
  EXPECT_EQ(restored->epoch, state.monteCarlo->epoch);
  EXPECT_EQ(walkContents(*restored), walkContents(*state.monteCarlo));
  // Visit counts are recounted from the walks, never persisted; the
  // PPR visit index and delta chains ride along verbatim.
  EXPECT_EQ(restored->visits.toVector(), state.monteCarlo->visits.toVector());
  EXPECT_EQ(restored->indexOffsets, state.monteCarlo->indexOffsets);
  EXPECT_EQ(restored->indexWalks, state.monteCarlo->indexWalks);
  EXPECT_EQ(restored->deltaHead, state.monteCarlo->deltaHead);

  // Resumability: adopt the restored store into a fresh engine state
  // (ranks seeded the way recovery does, from the checkpointed vector)
  // and repair BOTH stores through one more batch — they must stay
  // bit-identical.
  detail::LfEngineState resumed(g.numVertices());
  resumed.seedRanks(state.ranks.toVector());
  resumed.monteCarlo = std::move(restored);
  resumed.monteCarloValid = true;

  const auto batch = generateBatch(g, 200, rng);
  g.applyBatch(batch);
  const auto curr = g.toCsr();
  ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt, nullptr,
                                       "test")
                  .converged);
  ASSERT_TRUE(detail::lfMonteCarloStep(resumed, prev, curr, batch, opt,
                                       nullptr, "test")
                  .converged);
  EXPECT_EQ(resumed.monteCarlo->fingerprint(),
            state.monteCarlo->fingerprint())
      << "a deserialized store must repair exactly like the original";
  EXPECT_EQ(resumed.ranks.toVector(), state.ranks.toVector());
}

TEST(MonteCarlo, WalkStoreImageRejectsCorruptPayloads) {
  const auto g = makeTestDigraph(101).toCsr();
  const auto opt = mcOptions(/*walksPerVertex=*/2);
  detail::LfEngineState state(g.numVertices());
  ASSERT_TRUE(
      detail::lfMonteCarloStep(state, g, g, {}, opt, nullptr, "test").converged);
  const auto img = detail::mcSerializeStore(*state.monteCarlo);

  // The happy path still deserializes — the corruptions below are the
  // only deltas.
  ASSERT_NE(detail::mcDeserializeStore(img), nullptr);
  {
    auto bad = img;  // truncated segment blob (torn file shape)
    bad.segments.pop_back();
    EXPECT_THROW(detail::mcDeserializeStore(bad), std::runtime_error);
  }
  {
    auto bad = img;  // walk count disagrees with n * walksPerVertex
    bad.numWalks += 1;
    EXPECT_THROW(detail::mcDeserializeStore(bad), std::runtime_error);
  }
  {
    auto bad = img;  // trailing garbage after the visit index
    bad.visitIndex.push_back(std::byte{0x5a});
    EXPECT_THROW(detail::mcDeserializeStore(bad), std::runtime_error);
  }
  {
    auto bad = img;  // walk 0's length corrupted past the stride
    bad.segments[0] ^= std::byte{0xff};
    EXPECT_THROW(detail::mcDeserializeStore(bad), std::runtime_error);
  }
}

// ---------------------------------------------------------------------
// Personalized queries.

TEST(MonteCarlo, PprTopKMatchesExactPersonalizedRanks) {
  Rng rng(96);
  auto edges = generateRmat(5, 8 * 32, rng);
  appendSelfLoops(edges, 32);
  const auto g = DynamicDigraph::fromEdges(32, edges).toCsr();
  const auto opt = mcOptions(/*walksPerVertex=*/512);

  detail::LfEngineState state(g.numVertices());
  ASSERT_TRUE(
      detail::lfMonteCarloStep(state, g, g, {}, opt, nullptr, "test").converged);
  const auto index = detail::buildPprIndex(*state.monteCarlo);
  ASSERT_EQ(index.numRoots(), g.numVertices());

  for (const VertexId root : {VertexId{0}, VertexId{3}, VertexId{17}}) {
    const auto exact = exactPpr(g, root, opt.alpha);
    const auto top = index.topK(root, 5);
    ASSERT_FALSE(top.empty());
    for (std::size_t i = 1; i < top.size(); ++i)
      EXPECT_GE(top[i - 1].score, top[i].score);
    for (const auto& entry : top) {
      EXPECT_GT(entry.errorBound, 0.0);
      EXPECT_NEAR(entry.score, exact[entry.vertex], entry.errorBound)
          << "root " << root << " vertex " << entry.vertex;
    }
    // The walks start at root, so root is always in its own support.
    const auto full = index.topK(root, g.numVertices());
    double sum = 0.0;
    bool sawRoot = false;
    for (const auto& entry : full) {
      sum += entry.score;
      sawRoot |= entry.vertex == root;
    }
    EXPECT_TRUE(sawRoot);
    EXPECT_NEAR(sum, 1.0, 0.08);  // alpha^32 truncation + sampling noise
  }
  // Out-of-range root and k = 0 answer empty, not UB.
  EXPECT_TRUE(index.topK(static_cast<VertexId>(g.numVertices()), 3).empty());
  EXPECT_TRUE(index.topK(0, 0).empty());
}

// ---------------------------------------------------------------------
// Capacity guard.

TEST(MonteCarlo, WalkIdSpaceOverflowRejectedByName) {
  // 2^20 roots x 5000 walks = 5,242,880,000 walks > 2^32 - 1: the
  // constructor must refuse, naming the offending count (same message
  // discipline as the snapshot loaders' vertex-count guard).
  detail::McConfig cfg;
  cfg.walksPerVertex = 5000;
  try {
    detail::MonteCarloState state(std::size_t{1} << 20, cfg);
    FAIL() << "overflowing walk count was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5242880000"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// Accuracy drift: replayed batches must not accumulate bias.

TEST(MonteCarlo, AccuracyDriftUnderReplayStaysBounded) {
  // Replays an edge stream through ONE resident store — the repair path
  // compounds here, so any bias (wrong truncation point, double-counted
  // visit, stale-claim mishandling) accumulates past the bound even
  // though each individual step looks fine. Tier-1 runs the smoke size;
  // the nightly lane sets LFPR_MC_DRIFT_SCALE=1 for the scale-1 dataset
  // (and LFPR_DATASET_DIR for its snapshot cache).
  const char* scaleEnv = std::getenv("LFPR_MC_DRIFT_SCALE");
  const int scale = scaleEnv != nullptr ? std::atoi(scaleEnv) : 0;

  DynamicDigraph g = scale >= 1
                         ? loadDatasetGraph(staticDatasets(scale).front(),
                                            scale, /*seed=*/1)
                         : makeTestDigraph(97);
  const int walksPerVertex = 64;
  const int numBatches = scale >= 1 ? 24 : 10;
  const int checkEvery = scale >= 1 ? 4 : 2;
  PageRankOptions opt = mcOptions(walksPerVertex);
  const double bound = mcL1ErrorBound(opt.alpha, walksPerVertex);

  detail::LfEngineState state(g.numVertices());
  auto prev = g.toCsr();
  ASSERT_TRUE(
      detail::lfMonteCarloStep(state, prev, prev, {}, opt, nullptr, "drift")
          .converged);
  Rng rng(98);
  for (int b = 1; b <= numBatches; ++b) {
    const auto batch = generateBatchFraction(g, 1e-4, rng);
    g.applyBatch(batch);
    const auto curr = g.toCsr();
    ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt,
                                         nullptr, "drift")
                    .converged);
    prev = curr;
    if (b % checkEvery == 0 || b == numBatches) {
      const double l1 =
          l1Norm(state.ranks.toVector(), referenceRanks(curr, opt.alpha));
      EXPECT_LT(l1, bound) << "drift past the advertised bound after " << b
                           << " batches";
    }
  }
  EXPECT_EQ(state.monteCarlo->epoch, static_cast<std::uint64_t>(numBatches));
}

}  // namespace
}  // namespace lfpr
