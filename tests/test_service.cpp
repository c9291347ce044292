// Service-layer tests (PR 6): the RankService's epoch/RCU snapshot swap
// must never show readers torn, rolled-back, or unconverged ranks; the
// grace period must actually reclaim retired snapshots; crash-stopped
// steps must leave readers on the last published epoch; and continuous
// ingest must agree with an offline batch solve within the §4.5 error
// bounds. The SnapshotBox stress tests run the classic torn-read
// experiment (every snapshot internally self-consistent under a
// publisher firehose) and are in the TSan preset via the `service`
// suite filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "generate/batch_gen.hpp"
#include "generate/generators.hpp"
#include "graph/dynamic_digraph.hpp"
#include "pagerank/pagerank.hpp"
#include "service/rank_service.hpp"
#include "service/snapshot_box.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

constexpr VertexId kVertices = VertexId{1} << 10;

CsrGraph makeTestGraph(std::uint64_t seed) {
  Rng rng(seed);
  auto edges = generateRmat(10, 8 * kVertices, rng);
  appendSelfLoops(edges, kVertices);
  return DynamicDigraph::fromEdges(kVertices, edges).toCsr();
}

ServiceOptions smallServiceOptions() {
  ServiceOptions opt;
  opt.solver.numThreads = 4;
  opt.solver.chunkSize = 64;
  return opt;
}

std::unique_ptr<RankSnapshot> patternSnapshot(std::uint64_t epoch,
                                              std::size_t n) {
  auto snap = std::make_unique<RankSnapshot>();
  snap->epoch = epoch;
  snap->converged = true;
  snap->ranks.assign(n, static_cast<double>(epoch));
  return snap;
}

// ---------------------------------------------------------------------
// SnapshotBox: swap, immutability, grace-period reclamation.

TEST(SnapshotBox, AcquireSeesLatestPublish) {
  SnapshotBox box;
  EXPECT_FALSE(box.acquire());  // nothing published yet
  box.publish(patternSnapshot(1, 8));
  {
    const SnapshotView v = box.acquire();
    ASSERT_TRUE(v);
    EXPECT_EQ(v->epoch, 1u);
  }
  box.publish(patternSnapshot(2, 8));
  const SnapshotView v = box.acquire();
  EXPECT_EQ(v->epoch, 2u);
}

TEST(SnapshotBox, HeldViewSurvivesPublishesUnchanged) {
  SnapshotBox box;
  box.publish(patternSnapshot(1, 64));
  const SnapshotView held = box.acquire();
  const std::vector<double> before = held->ranks;
  for (std::uint64_t e = 2; e <= 50; ++e) box.publish(patternSnapshot(e, 64));
  // The pinned snapshot is bit-for-bit what it was at acquire: no
  // publish mutated or reclaimed it under the reader.
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(held->ranks, before);
  // And the grace period held it: epoch 1 is retired but not freed.
  EXPECT_GE(box.retiredCount(), 1u);
}

TEST(SnapshotBox, GracePeriodReclaimsAfterRelease) {
  SnapshotBox box;
  box.publish(patternSnapshot(1, 8));
  SnapshotView held = box.acquire();
  for (std::uint64_t e = 2; e <= 10; ++e) box.publish(patternSnapshot(e, 8));
  EXPECT_GE(box.retiredCount(), 1u);
  held.reset();
  // Reclamation happens on the publisher's next publish; with every
  // reader quiescent the whole retire list (including the snapshot
  // retired by this very publish) drains.
  box.publish(patternSnapshot(11, 8));
  EXPECT_EQ(box.retiredCount(), 0u);
  EXPECT_EQ(box.reclaimedCount(), 10u);
}

TEST(SnapshotBox, QuiescentReadersReclaimEverything) {
  SnapshotBox box;
  for (std::uint64_t e = 1; e <= 100; ++e) {
    box.publish(patternSnapshot(e, 8));
    const SnapshotView v = box.acquire();
    EXPECT_EQ(v->epoch, e);
  }
  // Every view was released before the next publish: at most the most
  // recent retiree can still be pending.
  EXPECT_LE(box.retiredCount(), 1u);
  EXPECT_GE(box.reclaimedCount(), 98u);
}

TEST(SnapshotBox, NestedAcquiresShareThePin) {
  SnapshotBox box;
  box.publish(patternSnapshot(1, 8));
  const SnapshotView outer = box.acquire();
  {
    const SnapshotView inner = box.acquire();
    EXPECT_EQ(inner->epoch, outer->epoch);
  }
  // Inner release must not unpin the outer view.
  box.publish(patternSnapshot(2, 8));
  EXPECT_EQ(outer->epoch, 1u);
  EXPECT_EQ(outer->ranks[0], 1.0);
}

// The torn-read experiment: a publisher firehose against readers that
// verify every acquired snapshot is internally self-consistent (all
// elements equal the epoch) and per-reader epochs never go backwards.
// Any torn read, rollback, or use-after-reclaim shows up as a value
// mismatch here — and as a race under TSan.
TEST(SnapshotBoxStress, NoTornReadsUnderPublishFirehose) {
  SnapshotBox box;
  box.publish(patternSnapshot(1, 64));
  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t lastEpoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SnapshotView v = box.acquire();
        if (!v) continue;
        const std::uint64_t e = v->epoch;
        if (e < lastEpoch) violations.fetch_add(1);
        lastEpoch = e;
        for (const double r : v->ranks)
          if (r != static_cast<double>(e)) violations.fetch_add(1);
      }
    });
  }
  for (std::uint64_t e = 2; e <= kPublishes; ++e)
    box.publish(patternSnapshot(e, 64));
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
  // With all readers quiescent, one more publish drains the retire list
  // down to (at most) its own predecessor.
  box.publish(patternSnapshot(kPublishes + 1, 64));
  EXPECT_LE(box.retiredCount(), 1u);
}

// ---------------------------------------------------------------------
// RankSnapshot::topK: the cached per-epoch prefix.

using RankedList = std::vector<std::pair<VertexId, double>>;

/// The k best of `ranks` by a full partial_sort: rank descending, ties
/// by vertex id. The order topK must reproduce.
RankedList referenceTopK(const std::vector<double>& ranks, std::size_t k) {
  RankedList order(ranks.size());
  for (std::size_t v = 0; v < ranks.size(); ++v)
    order[v] = {static_cast<VertexId>(v), ranks[v]};
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  order.resize(k);
  return order;
}

/// Ranks drawn from 16 values, so every prefix boundary cuts through a
/// run of ties and the vertex-id tie-break decides membership.
std::unique_ptr<RankSnapshot> tiedRankSnapshot(std::uint64_t seed,
                                               std::size_t n) {
  auto snap = std::make_unique<RankSnapshot>();
  snap->epoch = seed;
  Rng rng(seed);
  snap->ranks.resize(n);
  for (double& r : snap->ranks)
    r = static_cast<double>(rng.below(16)) / 16.0;
  return snap;
}

TEST(RankSnapshot, TopKPrefixMatchesFullSort) {
  constexpr std::size_t n = 1000;
  const auto snap = tiedRankSnapshot(21, n);
  std::vector<std::size_t> ks = {0, 1, 10, 63, 64, 65, 200, n, n + 7};
  // Rising installs ever longer prefixes; falling answers every k from
  // the longest one.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t k : ks) {
      SCOPED_TRACE(k);
      EXPECT_EQ(snap->topK(k), referenceTopK(snap->ranks, k));
    }
    std::reverse(ks.begin(), ks.end());
  }
  // A falling order on a fresh snapshot starts from the longest prefix.
  const auto fresh = tiedRankSnapshot(22, n);
  for (const std::size_t k : ks) {
    SCOPED_TRACE(k);
    EXPECT_EQ(fresh->topK(k), referenceTopK(fresh->ranks, k));
  }
  // Shorter than the prefix floor: the prefix is the whole vector.
  const auto tiny = tiedRankSnapshot(23, 5);
  for (const std::size_t k : {std::size_t{3}, std::size_t{5}, std::size_t{9}})
    EXPECT_EQ(tiny->topK(k), referenceTopK(tiny->ranks, k));
  EXPECT_TRUE(RankSnapshot{}.topK(4).empty());
}

// Four readers with different k race to install the first (and a longer)
// prefix on a fresh snapshot every round; displaced prefixes must stay
// readable until the snapshot is reclaimed, and none may leak (the asan
// preset's leak check), with no race report under the tsan preset.
TEST(RankSnapshot, ConcurrentReadersInstallPrefixes) {
  constexpr std::size_t n = 2048;
  constexpr int kRounds = 200;
  constexpr std::size_t kReaderK[] = {10, 64, 130, 700};
  constexpr int kReaders = static_cast<int>(std::size(kReaderK));
  SnapshotBox box;
  std::atomic<int> round{0};
  std::atomic<int> done{0};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, k = kReaderK[t]] {
      for (int r = 1; r <= kRounds; ++r) {
        while (round.load(std::memory_order_acquire) < r) std::this_thread::yield();
        {
          const SnapshotView v = box.acquire();
          if (v->topK(k) != referenceTopK(v->ranks, k)) mismatches.fetch_add(1);
          // A second, shorter read answers from whatever is installed.
          if (v->topK(k / 2) != referenceTopK(v->ranks, k / 2))
            mismatches.fetch_add(1);
        }
        done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (int r = 1; r <= kRounds; ++r) {
    box.publish(tiedRankSnapshot(static_cast<std::uint64_t>(100 + r), n));
    round.store(r, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < r * kReaders)
      std::this_thread::yield();
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  box.publish(patternSnapshot(kRounds + 200, 8));
  EXPECT_LE(box.retiredCount(), 1u);
}

// ---------------------------------------------------------------------
// RankService: lifecycle, epochs, certificates.

TEST(Service, InitialSolvePublishesEpochOne) {
  const auto graph = makeTestGraph(11);
  RankService service(graph, smallServiceOptions());
  EXPECT_EQ(service.waitForEpoch(1), 1u);
  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_EQ(v->epoch, 1u);
  EXPECT_TRUE(v->converged);
  // §4.5 certificate: published with the bound of the solve's options.
  const auto& solver = smallServiceOptions().solver;
  EXPECT_DOUBLE_EQ(v->toleranceBound,
                   asyncToleranceBound(solver.tolerance, solver.alpha));
  // The initial solve is a real PageRank: matches the reference solver.
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(graph)), 1e-6);
}

TEST(Service, IngestQueryEquivalentToOfflineSolve) {
  const auto initial = makeTestGraph(12);
  RankService service(initial, smallServiceOptions());

  // Offline twin: same batches folded into a DynamicDigraph.
  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();

  Rng rng(13);
  for (int b = 0; b < 6; ++b) {
    const auto batch = generateBatch(offline, 150, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.waitIdle();

  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_TRUE(v->converged);
  EXPECT_EQ(v->batchesApplied, 6u);
  // Continuous ingest agrees with an offline solve of the final graph
  // well within the §4.5 certificate (default tolerance 1e-10 puts the
  // bound near 6.7e-10; drift across warm-started steps stays below it).
  const auto reference = referenceRanks(offline.toCsr());
  EXPECT_LT(linfNorm(v->ranks, reference), v->toleranceBound);

  const auto st = service.staleness();
  EXPECT_EQ(st.pendingBatches, 0u);
  EXPECT_EQ(st.pendingEdges, 0u);
  EXPECT_GE(st.epoch, 1u);
  EXPECT_GE(st.ageMs, 0.0);
}

TEST(Service, TopKMatchesFullSort) {
  const auto graph = makeTestGraph(14);
  RankService service(graph, smallServiceOptions());
  service.waitForEpoch(1);

  const SnapshotView v = service.snapshot();
  const auto top = v->topK(10);
  ASSERT_EQ(top.size(), 10u);
  // Descending, and each entry matches the vector it came from.
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].second, top[i].second);
  for (const auto& [vertex, rank] : top)
    EXPECT_EQ(rank, v->ranks[vertex]);
  // The k-th entry dominates everything outside the top-k set.
  std::vector<bool> inTop(v->ranks.size(), false);
  for (const auto& [vertex, rank] : top) inTop[vertex] = true;
  for (std::size_t u = 0; u < v->ranks.size(); ++u) {
    if (!inTop[u]) {
      EXPECT_LE(v->ranks[u], top.back().second);
    }
  }
  // Convenience accessors answer from the same published state.
  EXPECT_EQ(service.rank(top[0].first), top[0].second);
}

TEST(Service, ReadersKeepLastEpochAcrossCrashedSteps) {
  const auto initial = makeTestGraph(15);
  ServiceOptions opt = smallServiceOptions();
  opt.maxRecoveryAttempts = 1;
  // Solve 0 (initial) is healthy. Solves 1 and 2 — the first dynamic
  // step and its one recovery attempt — lose every worker almost
  // immediately, so the step fails and nothing may be published. Solve 3
  // (the carried full re-solve on the next step) is healthy again.
  std::atomic<int> crashedSolves{0};
  opt.faultFactory = [&](std::uint64_t solveIndex)
      -> std::unique_ptr<FaultInjector> {
    if (solveIndex == 1 || solveIndex == 2) {
      crashedSolves.fetch_add(1);
      return std::make_unique<FaultInjector>(
          4, makeCrashConfig(4, 4, /*minUpdates=*/1, /*maxUpdates=*/8,
                             /*seed=*/solveIndex));
    }
    return nullptr;
  };
  RankService service(initial, opt);
  service.waitForEpoch(1);
  const std::vector<double> epoch1 = service.ranks();

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(16);
  const auto batch1 = generateBatch(offline, 100, rng);
  offline.applyBatch(batch1);
  ASSERT_TRUE(service.submit(batch1));
  service.waitIdle();

  // The crashed step and its failed recovery must leave readers exactly
  // where they were: epoch 1, same ranks, nothing torn.
  EXPECT_EQ(crashedSolves.load(), 2);
  EXPECT_EQ(service.publishedEpoch(), 1u);
  EXPECT_EQ(service.ranks(), epoch1);
  auto st = service.stats();
  EXPECT_EQ(st.failedSteps, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  // ...but the batch is still pending, honestly reported.
  EXPECT_EQ(service.staleness().pendingBatches, 1u);

  // Next batch triggers the carried full re-solve (healthy): epoch 2
  // reflects BOTH batches.
  const auto batch2 = generateBatch(offline, 100, rng);
  offline.applyBatch(batch2);
  ASSERT_TRUE(service.submit(batch2));
  service.waitIdle();
  EXPECT_EQ(service.publishedEpoch(), 2u);
  EXPECT_EQ(service.staleness().pendingBatches, 0u);
  const SnapshotView v = service.snapshot();
  EXPECT_TRUE(v->converged);
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(offline.toCsr())),
            v->toleranceBound);
}

// ---------------------------------------------------------------------
// Engine routing (PR 8): incremental steps through the delta-push
// residual engine, explicitly or via Auto for batches up to 1e-3 |E|.

TEST(Service, DeltaPushStepEngineMatchesOfflineSolve) {
  const auto initial = makeTestGraph(40);
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::DeltaPush;
  RankService service(initial, opt);

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(41);
  for (int b = 0; b < 6; ++b) {
    const auto batch = generateBatch(offline, 150, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.waitIdle();

  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_TRUE(v->converged);
  EXPECT_EQ(v->batchesApplied, 6u);
  // Every incremental step went through the push engine (the initial
  // full solve stays pull — its frontier is the whole graph).
  EXPECT_GT(service.stats().deltaPushSteps, 0u);
  // Push steps park up to tau of residual mass at every vertex, so the
  // drift allowance against the offline reference is wider than the
  // pull service's certificate check — same 16x rationale as the
  // delta-push sweeps in test_kernels.cpp.
  const auto reference = referenceRanks(offline.toCsr());
  EXPECT_LT(linfNorm(v->ranks, reference), 16.0 * v->toleranceBound);
}

TEST(Service, AutoRoutesMidBandBatchesToDeltaPush) {
  const auto initial = makeTestGraph(42);
  const double edges = static_cast<double>(
      DynamicDigraph::fromCsr(initial).toCsr().numEdges());
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::Auto;
  RankService service(initial, opt);
  service.waitForEpoch(1);

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(43);

  // A batch inside the band: fraction at most 1e-3 of graph edges.
  const auto midEdges = static_cast<std::size_t>(std::max(
      1.0, edges * ServiceOptions::kDeltaPushMaxFraction * 0.5));
  const auto mid = generateBatch(offline, midEdges, rng);
  offline.applyBatch(mid);
  ASSERT_TRUE(service.submit(mid));
  service.waitIdle();
  EXPECT_EQ(service.stats().deltaPushSteps, 1u) << "mid-band batch";

  // A batch far above the band routes back to the pull engine.
  const auto big = generateBatch(offline, 400, rng);
  offline.applyBatch(big);
  ASSERT_TRUE(service.submit(big));
  service.waitIdle();
  EXPECT_EQ(service.stats().deltaPushSteps, 1u) << "dense batch stayed pull";

  const SnapshotView v = service.snapshot();
  EXPECT_TRUE(v->converged);
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(offline.toCsr())),
            16.0 * v->toleranceBound);
}

TEST(Service, AutoRoutesTinyBatchesToDeltaPush) {
  // A graph large enough that a one-edge batch is below 1e-5 of it.
  constexpr VertexId n = VertexId{1} << 14;
  Rng graphRng(44);
  auto es = generateRmat(14, 8 * n, graphRng);
  appendSelfLoops(es, n);
  const auto initial = CsrGraph::fromEdges(n, es);
  ASSERT_LT(1.0, 1e-5 * static_cast<double>(initial.numEdges()));

  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::Auto;
  RankService service(initial, opt);
  service.waitForEpoch(1);

  auto offline = DynamicDigraph::fromCsr(initial);
  Rng rng(45);
  const auto tiny = generateBatch(offline, 1, rng);
  ASSERT_EQ(tiny.size(), 1u);
  offline.applyBatch(tiny);
  ASSERT_TRUE(service.submit(tiny));
  service.waitIdle();
  EXPECT_EQ(service.stats().deltaPushSteps, 1u);

  // Same 16x allowance as the mid-band test above.
  const SnapshotView v = service.snapshot();
  EXPECT_TRUE(v->converged);
  EXPECT_EQ(v->batchesApplied, 1u);
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(offline.toCsr())),
            16.0 * v->toleranceBound);
}

TEST(Service, StatsAccumulateProtocolCounters) {
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::Auto;
  const auto initial = makeTestGraph(46);
  RankService service(initial, opt);
  service.waitForEpoch(1);
  const ServiceStats first = service.stats();
  EXPECT_GT(first.rankUpdates, 0u) << "the initial full solve counts";
  EXPECT_GT(first.protocolStats.flagRmws, 0u);

  auto offline = DynamicDigraph::fromCsr(initial);
  Rng rng(47);
  for (int step = 0; step < 3; ++step) {
    const auto batch = generateBatch(offline, 4, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
    service.waitIdle();
  }
  const ServiceStats after = service.stats();
  ASSERT_GT(after.deltaPushSteps, 0u) << "tiny batches route to push";
  EXPECT_GT(after.rankUpdates, first.rankUpdates);
  EXPECT_GT(after.protocolStats.flagRmws, first.protocolStats.flagRmws);
  EXPECT_GT(after.protocolStats.residualPushes, 0u);
  EXPECT_GT(after.protocolStats.activations, first.protocolStats.activations);
}

// ---------------------------------------------------------------------
// Monte Carlo engine routing (PR 9): approximate resident ranks plus
// personalized queries served through the snapshot, live under ingest.

TEST(Service, MonteCarloStepEngineTracksOfflineSolve) {
  const auto initial = makeTestGraph(50);
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::MonteCarlo;
  opt.solver.mcWalksPerVertex = 64;
  RankService service(initial, opt);

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(51);
  for (int b = 0; b < 6; ++b) {
    const auto batch = generateBatch(offline, 150, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.waitIdle();

  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_TRUE(v->converged);
  EXPECT_EQ(v->batchesApplied, 6u);
  // Every step — the initial build included — went through the walk
  // engine, and the snapshot is flagged as a statistical estimate.
  EXPECT_GT(service.stats().monteCarloSteps, 0u);
  EXPECT_EQ(service.stats().deltaPushSteps, 0u);
  EXPECT_TRUE(v->monteCarlo);
  EXPECT_NE(v->mcFingerprint(), 0u);
  EXPECT_EQ(v->toleranceBound,
            mcL1ErrorBound(opt.solver.alpha, opt.solver.mcWalksPerVertex));
  // The certificate is an L1 scale here, not the exact engines' L-inf.
  const auto reference = referenceRanks(offline.toCsr());
  EXPECT_LT(l1Norm(v->ranks, reference), v->toleranceBound);
}

TEST(Service, PprTopKServedWhileIngesting) {
  const auto initial = makeTestGraph(52);
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::MonteCarlo;
  opt.solver.mcWalksPerVertex = 16;
  RankService service(initial, opt);
  service.waitForEpoch(1);

  // Readers hammer personalized queries while the writer streams
  // batches: every answer must come from a coherent published index —
  // sorted, root in its own support, per-entry bounds positive.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&service, &done, &answered, t] {
      std::uint64_t q = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto root =
            static_cast<VertexId>((q * 97 + static_cast<std::uint64_t>(t)) %
                                  kVertices);
        const auto top = service.pprTopK(root, 8);
        if (!top.empty()) {
          bool sawRoot = false;
          for (std::size_t i = 0; i < top.size(); ++i) {
            if (i > 0 && top[i - 1].score < top[i].score)
              ADD_FAILURE() << "unsorted pprTopK under ingest";
            if (top[i].errorBound <= 0.0)
              ADD_FAILURE() << "non-positive MC error bound";
            sawRoot |= top[i].vertex == root;
          }
          // Walks start at the root: it always carries >= R visits.
          if (!sawRoot) ADD_FAILURE() << "root " << root << " missing from "
                                         "its own personalized top-k";
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        ++q;
      }
    });
  }

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(53);
  for (int b = 0; b < 8; ++b) {
    const auto batch = generateBatch(offline, 100, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.waitIdle();
  done.store(true);
  for (auto& r : readers) r.join();

  EXPECT_GT(answered.load(), 0u) << "no personalized query ever answered";
  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v->monteCarlo);
  ASSERT_NE(v->ppr, nullptr);
  EXPECT_EQ(v->ppr->numRoots(), static_cast<std::size_t>(kVertices));
  // Exact-engine services never expose a PPR index.
  RankService exact(initial, smallServiceOptions());
  exact.waitForEpoch(1);
  EXPECT_TRUE(exact.pprTopK(0, 8).empty());
  EXPECT_EQ(exact.snapshot()->mcFingerprint(), 0u);
}

TEST(Service, DeltaPushCrashedStepRecoversBeforePublish) {
  // A delta-push step that loses every worker must behave exactly like a
  // crashed pull step: nothing published until the service-level full
  // re-solve converges.
  const auto initial = makeTestGraph(44);
  ServiceOptions opt = smallServiceOptions();
  opt.stepEngine = ServiceOptions::StepEngine::DeltaPush;
  std::atomic<int> crashedSolves{0};
  opt.faultFactory =
      [&](std::uint64_t solveIndex) -> std::unique_ptr<FaultInjector> {
    if (solveIndex == 1) {  // the first (push) incremental step
      crashedSolves.fetch_add(1);
      return std::make_unique<FaultInjector>(
          4, makeCrashConfig(4, 4, /*minUpdates=*/1, /*maxUpdates=*/8,
                             /*seed=*/7));
    }
    return nullptr;
  };
  RankService service(initial, opt);
  service.waitForEpoch(1);

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(45);
  const auto batch = generateBatch(offline, 150, rng);
  offline.applyBatch(batch);
  ASSERT_TRUE(service.submit(batch));
  service.waitIdle();

  EXPECT_EQ(crashedSolves.load(), 1);
  EXPECT_GE(service.stats().recoveries, 1u);
  const SnapshotView v = service.snapshot();
  EXPECT_TRUE(v->converged);
  // The recovery full re-solve is a pull solve, so the ordinary
  // certificate check applies.
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(offline.toCsr())),
            v->toleranceBound);
}

// Readers hammer the service while batches stream in: every observed
// snapshot is a published fixpoint (sums to 1 within its certificate,
// converged, monotone epoch). A torn swap or rolled-back publish would
// break the rank-sum or epoch invariants.
TEST(Service, ConcurrentReadersSeeOnlyConvergedSnapshots) {
  const auto initial = makeTestGraph(17);
  ServiceOptions opt = smallServiceOptions();
  opt.maxBatchesPerStep = 2;
  RankService service(initial, opt);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t lastEpoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SnapshotView v = service.snapshot();
        if (!v) continue;
        if (v->epoch < lastEpoch) violations.fetch_add(1);
        lastEpoch = v->epoch;
        if (v->epoch >= 1 && !v->converged) violations.fetch_add(1);
        // Rank mass is conserved by every published fixpoint; a torn
        // read mixing two epochs' ranks would not sum to 1.
        if (std::fabs(rankSum(v->ranks) - 1.0) > 1e-6)
          violations.fetch_add(1);
      }
    });
  }

  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(18);
  for (int b = 0; b < 10; ++b) {
    const auto batch = generateBatch(offline, 120, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.waitIdle();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_LT(linfNorm(service.ranks(), referenceRanks(offline.toCsr())), 1e-6);
}

TEST(Service, StopAbortsInFlightSolvePromptly) {
  // A solver stop token already set: the engines exit at the first
  // boundary with honest flags.
  const auto graph = makeTestGraph(19);
  std::atomic<bool> stopNow{true};
  PageRankOptions opt;
  opt.numThreads = 2;
  opt.stopRequested = &stopNow;
  const auto r = staticLF(graph, opt);
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(std::isinf(r.toleranceBound));

  const auto rb = staticBB(graph, opt);
  EXPECT_TRUE(rb.stopped);
  EXPECT_FALSE(rb.converged);

  // Service-level: stop() during ingest returns without publishing
  // anything partial; the last epoch stays queryable.
  RankService service(graph, smallServiceOptions());
  service.waitForEpoch(1);
  Rng rng(20);
  auto dyn = DynamicDigraph::fromCsr(graph);
  for (int b = 0; b < 4; ++b)
    (void)service.trySubmit(generateBatch(dyn, 100, rng));
  service.stop();
  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_GE(v->epoch, 1u);
  EXPECT_TRUE(v->converged);
  // Stopped: no further submissions are accepted.
  EXPECT_FALSE(service.submit(generateBatch(dyn, 10, rng)));
}

TEST(Service, DrainAndStopFinishesQueuedWork) {
  const auto initial = makeTestGraph(21);
  RankService service(initial, smallServiceOptions());
  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  Rng rng(22);
  for (int b = 0; b < 5; ++b) {
    const auto batch = generateBatch(offline, 80, rng);
    offline.applyBatch(batch);
    ASSERT_TRUE(service.submit(batch));
  }
  service.drainAndStop();
  const auto st = service.stats();
  EXPECT_EQ(st.batchesApplied, 5u);
  EXPECT_EQ(service.staleness().pendingBatches, 0u);
  EXPECT_LT(linfNorm(service.ranks(), referenceRanks(offline.toCsr())), 1e-6);
}

}  // namespace
}  // namespace lfpr
