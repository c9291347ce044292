// Durability tests (PR 7): the write-ahead ingest journal must round
// trip and treat torn tails as clean EOF with quarantine, checkpoints
// must bind their csr/meta halves and fall back to older pairs when the
// newest is torn, and restart recovery must reproduce a clean run's
// ranks within the §4.5 certificate. The crash matrix then kills the
// service at every I/O fail point a clean run executes, restarts,
// resubmits what was never acknowledged, and verifies no
// journaled-then-acknowledged batch was lost.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "generate/batch_gen.hpp"
#include "generate/generators.hpp"
#include "graph/csr_file.hpp"
#include "graph/dynamic_digraph.hpp"
#include "graph/edge_log.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/monte_carlo.hpp"
#include "pagerank/pagerank.hpp"
#include "service/checkpoint.hpp"
#include "service/ingest_journal.hpp"
#include "service/rank_service.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

namespace fs = std::filesystem;

constexpr VertexId kVertices = VertexId{1} << 9;

CsrGraph makeTestGraph(std::uint64_t seed) {
  Rng rng(seed);
  auto edges = generateRmat(9, 8 * kVertices, rng);
  appendSelfLoops(edges, kVertices);
  return DynamicDigraph::fromEdges(kVertices, edges).toCsr();
}

/// Deterministic batch stream plus the graph they produce when all are
/// applied — the offline twin every recovery test verifies against.
std::vector<BatchUpdate> makeBatches(const CsrGraph& initial, int count,
                                     std::uint64_t seed) {
  auto g = DynamicDigraph::fromCsr(initial);
  g.ensureSelfLoops();
  Rng rng(seed);
  std::vector<BatchUpdate> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto batch = generateBatch(g, 50 + (static_cast<std::size_t>(i) * 37) % 101,
                               rng);
    g.applyBatch(batch);
    out.push_back(std::move(batch));
  }
  return out;
}

std::vector<double> offlineReference(const CsrGraph& initial,
                                     const std::vector<BatchUpdate>& batches,
                                     std::size_t upTo) {
  auto g = DynamicDigraph::fromCsr(initial);
  g.ensureSelfLoops();
  for (std::size_t i = 0; i < upTo; ++i) g.applyBatch(batches[i]);
  return referenceRanks(g.toCsr());
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lfpr-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FailPoints::instance().disarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void truncateFile(const std::string& file, std::uint64_t newSize) {
    fs::resize_file(file, newSize);
  }

  /// Flip one byte at `offset` in an existing file.
  static void corruptByte(const std::string& file, std::uint64_t offset) {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  [[nodiscard]] ServiceOptions durableOptions(
      std::uint64_t checkpointEverySolves = 1,
      FsyncPolicy fsync = FsyncPolicy::Batch) const {
    ServiceOptions opt;
    opt.solver.numThreads = 2;
    opt.solver.chunkSize = 64;
    opt.durability.directory = dir_.string();
    opt.durability.fsync = fsync;
    opt.durability.checkpointEverySolves = checkpointEverySolves;
    opt.durability.groupCommitWindow = std::chrono::milliseconds(1);
    return opt;
  }

  fs::path dir_;
};

IngestJournal::Options journalOptions() {
  IngestJournal::Options opt;
  opt.fsync = FsyncPolicy::Batch;
  return opt;
}

BatchUpdate sampleBatch(std::uint64_t seed, std::size_t edges = 8) {
  Rng rng(seed);
  BatchUpdate b;
  for (std::size_t i = 0; i < edges; ++i) {
    const Edge e{static_cast<VertexId>(rng() % kVertices),
                 static_cast<VertexId>(rng() % kVertices)};
    if (i % 3 == 0)
      b.deletions.push_back(e);
    else
      b.insertions.push_back(e);
  }
  return b;
}

std::uint64_t recordBytes(const BatchUpdate& b) {
  return sizeof(JournalRecordHeader) + b.size() * sizeof(Edge);
}

// ---------------------------------------------------------------------
// IngestJournal: round trip, torn-tail quarantine, compaction.

TEST_F(DurabilityTest, JournalRoundTrip) {
  const auto b1 = sampleBatch(1);
  const auto b2 = sampleBatch(2, 0);  // empty batch is a legal record
  const auto b3 = sampleBatch(3, 13);
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_EQ(j.quarantinedBytes(), 0u);
    EXPECT_EQ(j.append(b1), 1u);
    EXPECT_EQ(j.append(b2), 2u);
    EXPECT_EQ(j.append(b3), 3u);
    EXPECT_EQ(j.lastSeq(), 3u);
  }
  IngestJournal j(path("journal"), kVertices, journalOptions());
  ASSERT_EQ(j.recovered().size(), 3u);
  EXPECT_EQ(j.quarantinedBytes(), 0u);
  EXPECT_EQ(j.recovered()[0].seq, 1u);
  EXPECT_EQ(j.recovered()[0].batch.deletions, b1.deletions);
  EXPECT_EQ(j.recovered()[0].batch.insertions, b1.insertions);
  EXPECT_TRUE(j.recovered()[1].batch.empty());
  EXPECT_EQ(j.recovered()[2].batch.insertions, b3.insertions);
  // Appends continue past the recovered tail.
  EXPECT_EQ(j.append(sampleBatch(4)), 4u);
}

TEST_F(DurabilityTest, JournalTornTailIsCleanEofWithQuarantine) {
  const auto b1 = sampleBatch(5);
  const auto b2 = sampleBatch(6);
  const auto b3 = sampleBatch(7);
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    j.append(b1);
    j.append(b2);
    j.append(b3);
  }
  // Tear record 3 mid-payload: the crash-during-append shape.
  const std::uint64_t goodTail =
      sizeof(JournalHeader) + recordBytes(b1) + recordBytes(b2);
  truncateFile(path("journal"), goodTail + 10);

  std::vector<std::string> warnings;
  auto opt = journalOptions();
  opt.onWarning = [&](const std::string& w) { warnings.push_back(w); };
  IngestJournal j(path("journal"), kVertices, opt);
  ASSERT_EQ(j.recovered().size(), 2u);
  EXPECT_EQ(j.recovered()[1].seq, 2u);
  EXPECT_EQ(j.quarantinedBytes(), 10u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("quarantined"), std::string::npos);
  // Torn bytes preserved for forensics; the live file truncated back.
  EXPECT_TRUE(fs::exists(path("journal.torn")));
  EXPECT_EQ(fs::file_size(path("journal")), goodTail);
  // Appends land on the repaired tail and reuse the torn record's seq.
  EXPECT_EQ(j.append(sampleBatch(8)), 3u);
}

TEST_F(DurabilityTest, JournalChecksumBadTailQuarantined) {
  const auto b1 = sampleBatch(9);
  const auto b2 = sampleBatch(10);
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    j.append(b1);
    j.append(b2);
  }
  // Flip a payload byte inside record 2.
  corruptByte(path("journal"), sizeof(JournalHeader) + recordBytes(b1) +
                                   sizeof(JournalRecordHeader) + 3);
  IngestJournal j(path("journal"), kVertices, journalOptions());
  ASSERT_EQ(j.recovered().size(), 1u);
  EXPECT_EQ(j.recovered()[0].seq, 1u);
  EXPECT_EQ(j.quarantinedBytes(), recordBytes(b2));
  EXPECT_TRUE(fs::exists(path("journal.torn")));
}

TEST_F(DurabilityTest, JournalCorruptHeaderQuarantinesWholeFile) {
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    j.append(sampleBatch(11));
  }
  corruptByte(path("journal"), 2);  // magic
  std::vector<std::string> warnings;
  auto opt = journalOptions();
  opt.onWarning = [&](const std::string& w) { warnings.push_back(w); };
  IngestJournal j(path("journal"), kVertices, opt);
  EXPECT_TRUE(j.recovered().empty());
  EXPECT_GT(j.quarantinedBytes(), sizeof(JournalHeader));
  EXPECT_TRUE(fs::exists(path("journal.torn-file")));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("started fresh"), std::string::npos);
  // The file restarted as a virgin journal: seqs from 1.
  EXPECT_EQ(j.append(sampleBatch(12)), 1u);
}

TEST_F(DurabilityTest, JournalVertexMismatchQuarantinesWholeFile) {
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    j.append(sampleBatch(13));
  }
  IngestJournal j(path("journal"), kVertices / 2, journalOptions());
  EXPECT_TRUE(j.recovered().empty());
  EXPECT_GT(j.quarantinedBytes(), 0u);
}

TEST_F(DurabilityTest, JournalCompactThroughDropsCoveredPrefix) {
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    for (std::uint64_t s = 1; s <= 5; ++s) j.append(sampleBatch(s));
  }
  {
    IngestJournal j(path("journal"), kVertices, journalOptions());
    j.compactThrough(3);  // a checkpoint covered seqs 1..3
    const auto tail = j.takeRecovered();
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].seq, 4u);
    EXPECT_EQ(tail[1].seq, 5u);
    EXPECT_EQ(j.append(sampleBatch(14)), 6u);
  }
  // The compacted file scans clean with its non-1 starting seq.
  IngestJournal j(path("journal"), kVertices, journalOptions());
  ASSERT_EQ(j.recovered().size(), 3u);
  EXPECT_EQ(j.recovered()[0].seq, 4u);
  EXPECT_EQ(j.recovered()[2].seq, 6u);
}

TEST_F(DurabilityTest, JournalResetIfCoveredKeepsSeqCounting) {
  IngestJournal j(path("journal"), kVertices, journalOptions());
  for (std::uint64_t s = 1; s <= 3; ++s) j.append(sampleBatch(s));
  // Records beyond the checkpoint: reset must refuse.
  EXPECT_FALSE(j.resetIfCovered(2));
  EXPECT_TRUE(j.resetIfCovered(3));
  EXPECT_EQ(fs::file_size(path("journal")), sizeof(JournalHeader));
  EXPECT_TRUE(j.resetIfCovered(3));  // idempotent on an empty file
  EXPECT_EQ(j.append(sampleBatch(15)), 4u);
}

// ---------------------------------------------------------------------
// Checkpoints: pair atomicity, fallback, pruning, tmp sweep.

CheckpointData sampleCheckpoint(std::uint64_t epoch, std::uint64_t graphSeed) {
  CheckpointData d;
  d.epoch = epoch;
  d.journalSeq = epoch * 10;
  d.batchesApplied = epoch * 3;
  d.edgesIngested = epoch * 100;
  d.iterations = 17;
  d.toleranceBound = 6.7e-10;
  d.graph = makeTestGraph(graphSeed);
  d.ranks.assign(kVertices, 0.0);
  for (VertexId v = 0; v < kVertices; ++v)
    d.ranks[v] = 1.0 / (1.0 + static_cast<double>(v + epoch));
  return d;
}

TEST_F(DurabilityTest, CheckpointRoundTrip) {
  const auto data = sampleCheckpoint(4, 21);
  writeCheckpoint(dir_.string(), data);
  EXPECT_TRUE(fs::exists(path("ckpt-4.csr")));
  EXPECT_TRUE(fs::exists(path("ckpt-4.meta")));

  // No walk sidecar was requested: pre-PR 10 shape, flags == 0, and the
  // loader hands back a null store without complaint.
  EXPECT_FALSE(fs::exists(path("ckpt-4.walks")));

  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_FALSE(loaded->walkSidecarQuarantined);
  EXPECT_EQ(loaded->epoch, 4u);
  EXPECT_EQ(loaded->journalSeq, 40u);
  EXPECT_EQ(loaded->batchesApplied, 12u);
  EXPECT_EQ(loaded->edgesIngested, 400u);
  EXPECT_EQ(loaded->iterations, 17);
  EXPECT_DOUBLE_EQ(loaded->toleranceBound, 6.7e-10);
  EXPECT_EQ(loaded->ranks, data.ranks);
  EXPECT_EQ(loaded->graph.numEdges(), data.graph.numEdges());
  EXPECT_EQ(loaded->graph.edges(), data.graph.edges());
}

TEST_F(DurabilityTest, CheckpointFallsBackToOlderValidPair) {
  writeCheckpoint(dir_.string(), sampleCheckpoint(3, 22));
  writeCheckpoint(dir_.string(), sampleCheckpoint(7, 23));
  // Corrupt the newest meta's rank payload: its checksum no longer
  // verifies, so recovery must take epoch 3, warn, and delete nothing.
  corruptByte(path("ckpt-7.meta"), sizeof(CheckpointHeader) + 11);
  std::vector<std::string> warnings;
  const auto loaded =
      loadNewestCheckpoint(dir_.string(), kVertices,
                           [&](const std::string& w) { warnings.push_back(w); });
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 3u);
  EXPECT_FALSE(warnings.empty());
  EXPECT_TRUE(fs::exists(path("ckpt-7.meta")));
}

TEST_F(DurabilityTest, CheckpointMetaBindsItsCsrHalf) {
  writeCheckpoint(dir_.string(), sampleCheckpoint(2, 24));
  writeCheckpoint(dir_.string(), sampleCheckpoint(5, 25));
  // Replace epoch 5's csr with a DIFFERENT valid csr file: both halves
  // individually verify, but the meta's recorded csr checksum disagrees —
  // the mixed pair must be rejected, not plausibly loaded.
  writeCsrFile(path("ckpt-5.csr"), makeTestGraph(99));
  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
}

TEST_F(DurabilityTest, CheckpointTornMetaFallsBack) {
  writeCheckpoint(dir_.string(), sampleCheckpoint(1, 26));
  writeCheckpoint(dir_.string(), sampleCheckpoint(6, 27));
  truncateFile(path("ckpt-6.meta"), sizeof(CheckpointHeader) - 8);
  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  // With every pair invalid, recovery reports "nothing" rather than
  // guessing.
  truncateFile(path("ckpt-1.meta"), 10);
  EXPECT_FALSE(loadNewestCheckpoint(dir_.string(), kVertices, nullptr));
}

TEST_F(DurabilityTest, PruneKeepsOnlyTheNamedEpoch) {
  writeCheckpoint(dir_.string(), sampleCheckpoint(1, 28));
  writeCheckpoint(dir_.string(), sampleCheckpoint(2, 29));
  writeCheckpoint(dir_.string(), sampleCheckpoint(3, 30));
  pruneCheckpoints(dir_.string(), 3);
  EXPECT_FALSE(fs::exists(path("ckpt-1.csr")));
  EXPECT_FALSE(fs::exists(path("ckpt-1.meta")));
  EXPECT_FALSE(fs::exists(path("ckpt-2.csr")));
  EXPECT_TRUE(fs::exists(path("ckpt-3.csr")));
  EXPECT_TRUE(fs::exists(path("ckpt-3.meta")));
}

TEST_F(DurabilityTest, SweepRemovesOnlyTmpScratch) {
  std::ofstream(path("ckpt-9.csr.tmp.4242")) << "stale";
  std::ofstream(path("ckpt-9.walks.tmp.4242")) << "stale";
  std::ofstream(path("journal.tmp.4242")) << "stale";
  std::ofstream(path("keepme.csr")) << "live";
  std::ofstream(path("keepme.walks")) << "live";
  sweepStaleTmpFiles(dir_.string());
  EXPECT_FALSE(fs::exists(path("ckpt-9.csr.tmp.4242")));
  EXPECT_FALSE(fs::exists(path("ckpt-9.walks.tmp.4242")));
  EXPECT_FALSE(fs::exists(path("journal.tmp.4242")));
  EXPECT_TRUE(fs::exists(path("keepme.csr")));
  EXPECT_TRUE(fs::exists(path("keepme.walks")));
}

// ---------------------------------------------------------------------
// Walk sidecar (PR 10): a checkpoint written by a MonteCarlo service is
// an atomic TRIPLE — but the sidecar is strictly weaker than the pair:
// any sidecar defect quarantines it and the exact rank recovery
// proceeds untouched.

PageRankOptions walkSolverOptions() {
  PageRankOptions opt;
  opt.numThreads = 2;
  opt.mcWalksPerVertex = 4;
  return opt;
}

/// sampleCheckpoint plus a REAL walk store: built on the epoch's graph,
/// then repaired through two batches so the persisted store carries a
/// non-zero walk epoch and live delta chains — the interesting shape.
CheckpointData sampleWalkCheckpoint(std::uint64_t epoch,
                                    std::uint64_t graphSeed,
                                    std::uint64_t* fingerprint = nullptr) {
  CheckpointData d = sampleCheckpoint(epoch, graphSeed);
  const auto opt = walkSolverOptions();
  detail::LfEngineState state(d.graph.numVertices());
  EXPECT_TRUE(detail::lfMonteCarloStep(state, d.graph, d.graph, {}, opt,
                                       nullptr, "test")
                  .converged);
  auto g = DynamicDigraph::fromCsr(d.graph);
  Rng rng(graphSeed ^ 0xabcdULL);
  auto prev = d.graph;
  for (int i = 0; i < 2; ++i) {
    const auto batch = generateBatch(g, 60, rng);
    g.applyBatch(batch);
    const auto curr = g.toCsr();
    EXPECT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, opt,
                                         nullptr, "test")
                    .converged);
    prev = curr;
  }
  d.graph = prev;  // the store is consistent with THIS graph
  d.walks = detail::mcSerializeStore(*state.monteCarlo);
  if (fingerprint != nullptr) *fingerprint = state.monteCarlo->fingerprint();
  return d;
}

TEST_F(DurabilityTest, WalkSidecarRoundTrip) {
  std::uint64_t fp = 0;
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(4, 61, &fp));
  EXPECT_TRUE(fs::exists(path("ckpt-4.csr")));
  EXPECT_TRUE(fs::exists(path("ckpt-4.walks")));
  EXPECT_TRUE(fs::exists(path("ckpt-4.meta")));

  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 4u);
  EXPECT_FALSE(loaded->walkSidecarQuarantined);
  ASSERT_NE(loaded->walkStore, nullptr);
  // Bit-identity, not approximation: the fingerprint covers the config,
  // the walk epoch, and every live walk's contents.
  EXPECT_EQ(loaded->walkStore->fingerprint(), fp);
  EXPECT_EQ(loaded->walkStore->epoch, 2u) << "the two repairs must survive";
  EXPECT_EQ(loaded->walkStore->n, static_cast<std::size_t>(kVertices));
}

TEST_F(DurabilityTest, WalkSidecarTornQuarantinesAndPairStillLoads) {
  const auto data = sampleWalkCheckpoint(5, 62);
  writeCheckpoint(dir_.string(), data);
  truncateFile(path("ckpt-5.walks"), fs::file_size(path("ckpt-5.walks")) - 9);

  std::vector<std::string> warnings;
  const auto loaded =
      loadNewestCheckpoint(dir_.string(), kVertices,
                           [&](const std::string& w) { warnings.push_back(w); });
  // Approximate resume state must never block exact rank recovery.
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 5u);
  EXPECT_EQ(loaded->ranks, data.ranks);
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_TRUE(loaded->walkSidecarQuarantined);
  EXPECT_FALSE(fs::exists(path("ckpt-5.walks")));
  EXPECT_TRUE(fs::exists(path("ckpt-5.walks.torn")));
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("ckpt-5.walks.torn"), std::string::npos)
      << "the warning must name the quarantine file: " << warnings[0];
  EXPECT_NE(warnings[0].find("rebuilt from the journal"), std::string::npos)
      << warnings[0];
}

TEST_F(DurabilityTest, WalkSidecarChecksumTamperQuarantines) {
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(6, 63));
  // Flip one payload byte: header parses, payload checksum must not.
  corruptByte(path("ckpt-6.walks"), sizeof(WalkSidecarHeader) + 33);
  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 6u);
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_TRUE(loaded->walkSidecarQuarantined);
  EXPECT_TRUE(fs::exists(path("ckpt-6.walks.torn")));
}

TEST_F(DurabilityTest, WalkSidecarWrappingSizesQuarantine) {
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(4, 68));
  // segmentBytes = 2^63 and indexBytes = total - 2^63: the sum wraps to
  // the real payload size and the payload checksum still verifies.
  const std::string walks = path("ckpt-4.walks");
  const std::uint64_t total = fs::file_size(walks) - sizeof(WalkSidecarHeader);
  const std::uint64_t seg = std::uint64_t{1} << 63;
  const std::uint64_t idx = total - seg;
  {
    std::fstream f(walks, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offsetof(WalkSidecarHeader, segmentBytes));
    f.write(reinterpret_cast<const char*>(&seg), sizeof(seg));
    f.seekp(offsetof(WalkSidecarHeader, indexBytes));
    f.write(reinterpret_cast<const char*>(&idx), sizeof(idx));
  }
  std::vector<std::string> warnings;
  const auto loaded =
      loadNewestCheckpoint(dir_.string(), kVertices,
                           [&](const std::string& w) { warnings.push_back(w); });
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 4u);
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_TRUE(loaded->walkSidecarQuarantined);
  EXPECT_TRUE(fs::exists(path("ckpt-4.walks.torn")));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("segmentBytes"), std::string::npos) << warnings[0];
}

TEST_F(DurabilityTest, WalkSidecarVersionSkewQuarantines) {
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(7, 64));
  // Corrupt the version field (first u32 after the 8-byte magic): a
  // future-format sidecar must be quarantined, never misparsed.
  corruptByte(path("ckpt-7.walks"), 8);
  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 7u);
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_TRUE(loaded->walkSidecarQuarantined);
  EXPECT_TRUE(fs::exists(path("ckpt-7.walks.torn")));
}

TEST_F(DurabilityTest, WalkSidecarMustBindToItsOwnPair) {
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(2, 65));
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(8, 66));
  // Replace epoch 8's sidecar with epoch 2's: the foreign file is
  // internally self-consistent (its own checksum verifies) but names a
  // different epoch/meta/csr — the binding check must reject it rather
  // than resume a store inconsistent with epoch 8's graph.
  fs::copy_file(path("ckpt-2.walks"), path("ckpt-8.walks"),
                fs::copy_options::overwrite_existing);
  const auto loaded = loadNewestCheckpoint(dir_.string(), kVertices, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 8u);
  EXPECT_EQ(loaded->walkStore, nullptr);
  EXPECT_TRUE(loaded->walkSidecarQuarantined);
  EXPECT_TRUE(fs::exists(path("ckpt-8.walks.torn")));
}

TEST_F(DurabilityTest, PruneTreatsWalkSidecarAsPartOfTheTriple) {
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(1, 67));
  writeCheckpoint(dir_.string(), sampleCheckpoint(2, 68));  // pair only
  writeCheckpoint(dir_.string(), sampleWalkCheckpoint(3, 69));
  // A stray sidecar with no pair (a crash between walks-rename and
  // meta-write on some old epoch) and a quarantined sidecar.
  std::ofstream(path("ckpt-9.walks")) << "orphan";
  std::ofstream(path("ckpt-2.walks.torn")) << "forensics";

  pruneCheckpoints(dir_.string(), 3);
  // The kept epoch survives as a whole triple.
  EXPECT_TRUE(fs::exists(path("ckpt-3.csr")));
  EXPECT_TRUE(fs::exists(path("ckpt-3.walks")));
  EXPECT_TRUE(fs::exists(path("ckpt-3.meta")));
  // Everything else goes with its set — including sidecars and orphans.
  EXPECT_FALSE(fs::exists(path("ckpt-1.csr")));
  EXPECT_FALSE(fs::exists(path("ckpt-1.walks")));
  EXPECT_FALSE(fs::exists(path("ckpt-1.meta")));
  EXPECT_FALSE(fs::exists(path("ckpt-2.csr")));
  EXPECT_FALSE(fs::exists(path("ckpt-2.meta")));
  EXPECT_FALSE(fs::exists(path("ckpt-9.walks")));
  // Quarantine files are forensic evidence, preserved like journal.torn.
  EXPECT_TRUE(fs::exists(path("ckpt-2.walks.torn")));
}

// ---------------------------------------------------------------------
// Edge-log tail policy (satellite): torn tail readable, strict intact.

TEST_F(DurabilityTest, EdgeLogTailPolicyQuarantinesTornTail) {
  TemporalEdgeListData data;
  data.numVertices = 64;
  Rng rng(31);
  for (int i = 0; i < 20; ++i)
    data.edges.push_back({static_cast<VertexId>(rng() % 64),
                          static_cast<VertexId>(rng() % 64),
                          static_cast<std::uint64_t>(i)});
  writeTemporalEdgeLog(path("log.bin"), data);

  // Tear the final record: 10 bytes of the last 16-byte TemporalEdge.
  const auto full = fs::file_size(path("log.bin"));
  truncateFile(path("log.bin"), full - 10);

  // Strict (the dataset-cache contract) refuses.
  EXPECT_THROW(TemporalEdgeLogReader(path("log.bin")), FileFormatError);

  // QuarantineTorn clamps to the last complete record and reports.
  TemporalEdgeLogReader reader(path("log.bin"), LogTailPolicy::QuarantineTorn);
  EXPECT_EQ(reader.numEdges(), 19u);
  EXPECT_TRUE(reader.tornTail());
  EXPECT_EQ(reader.quarantinedBytes(), 6u);  // 16 - 10 torn bytes present
  std::vector<TemporalEdge> out(32);
  EXPECT_EQ(reader.read(out), 19u);

  // Oversize is NOT a crash artifact: hard error under both policies.
  writeTemporalEdgeLog(path("log2.bin"), data);
  std::ofstream(path("log2.bin"), std::ios::binary | std::ios::app) << "xx";
  EXPECT_THROW(
      TemporalEdgeLogReader(path("log2.bin"), LogTailPolicy::QuarantineTorn),
      FileFormatError);
}

// ---------------------------------------------------------------------
// RankService restart recovery.

TEST_F(DurabilityTest, ServiceReplaysJournalAfterRestart) {
  const auto initial = makeTestGraph(41);
  const auto batches = makeBatches(initial, 6, 42);
  // Cadence 0: journal-only durability on the first run (the forced
  // post-recovery checkpoint never triggers — there is no recovery).
  {
    RankService service(initial, durableOptions(/*checkpointEverySolves=*/0));
    for (const auto& b : batches) ASSERT_TRUE(service.submit(b));
    service.drainAndStop();
    EXPECT_EQ(service.stats().journaledBatches, 6u);
    EXPECT_EQ(service.stats().checkpoints, 0u);
  }
  // Restart: initial solve on `initial`, then the whole journal replays
  // through the DF step path, then the forced post-recovery checkpoint.
  RankService service(initial, durableOptions(/*checkpointEverySolves=*/0));
  service.waitIdle();
  const auto st = service.stats();
  EXPECT_EQ(st.replayedBatches, 6u);
  EXPECT_EQ(st.batchesApplied, 6u);
  EXPECT_EQ(st.checkpoints, 1u);
  EXPECT_EQ(service.staleness().pendingBatches, 0u);
  const SnapshotView v = service.snapshot();
  ASSERT_TRUE(v);
  EXPECT_TRUE(v->converged);
  EXPECT_LT(linfNorm(v->ranks, offlineReference(initial, batches, 6)),
            v->toleranceBound);
}

TEST_F(DurabilityTest, ServiceRestartFromCheckpointSkipsReplay) {
  const auto initial = makeTestGraph(43);
  const auto batches = makeBatches(initial, 4, 44);
  std::uint64_t finalEpoch = 0;
  std::vector<double> finalRanks;
  {
    RankService service(initial, durableOptions(/*checkpointEverySolves=*/1));
    for (const auto& b : batches) {
      ASSERT_TRUE(service.submit(b));
      service.waitIdle();  // one step (and one checkpoint) per batch
    }
    service.drainAndStop();
    EXPECT_GE(service.stats().checkpoints, 4u);
    finalEpoch = service.publishedEpoch();
    finalRanks = service.ranks();
    // Every journaled batch is checkpoint-covered: the journal was reset.
    EXPECT_EQ(fs::file_size(path("journal")), sizeof(JournalHeader));
  }
  RankService service(initial, durableOptions(/*checkpointEverySolves=*/1));
  // The checkpointed epoch is visible immediately — no solve needed; its
  // ranks ARE the snapshot the service once published.
  EXPECT_EQ(service.publishedEpoch(), finalEpoch);
  EXPECT_EQ(service.ranks(), finalRanks);
  service.waitIdle();
  const auto st = service.stats();
  EXPECT_EQ(st.replayedBatches, 0u);
  EXPECT_EQ(st.batchesApplied, 4u);
  // Ingest continues from the recovered state.
  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  for (const auto& b : batches) offline.applyBatch(b);
  Rng rng(45);
  const auto extra = generateBatch(offline, 90, rng);
  offline.applyBatch(extra);
  ASSERT_TRUE(service.submit(extra));
  service.drainAndStop();
  const SnapshotView v = service.snapshot();
  EXPECT_GT(v->epoch, finalEpoch);
  EXPECT_LT(linfNorm(v->ranks, referenceRanks(offline.toCsr())),
            v->toleranceBound);
}

TEST_F(DurabilityTest, ServiceQuarantinesTornJournalOnRestart) {
  const auto initial = makeTestGraph(46);
  const auto batches = makeBatches(initial, 3, 47);
  {
    RankService service(initial, durableOptions(/*checkpointEverySolves=*/0));
    for (const auto& b : batches) ASSERT_TRUE(service.submit(b));
    service.drainAndStop();
  }
  // Tear the journal's final record, as a mid-append crash would.
  truncateFile(path("journal"), fs::file_size(path("journal")) - 7);

  std::vector<std::string> warnings;
  auto opt = durableOptions(/*checkpointEverySolves=*/0);
  opt.durability.onWarning = [&](const std::string& w) {
    warnings.push_back(w);
  };
  RankService service(initial, opt);
  service.waitIdle();
  EXPECT_EQ(service.stats().replayedBatches, 2u);
  EXPECT_GT(service.stats().journalQuarantinedBytes, 0u);
  EXPECT_FALSE(warnings.empty());
  // The torn batch was never acknowledged-as-durable in this shape; the
  // client's retry path resubmits it and the ranks converge to the twin.
  ASSERT_TRUE(service.submit(batches[2]));
  service.drainAndStop();
  const SnapshotView v = service.snapshot();
  EXPECT_LT(linfNorm(v->ranks, offlineReference(initial, batches, 3)),
            v->toleranceBound);
}

TEST_F(DurabilityTest, ServiceGroupCommitAndNonePoliciesRecover) {
  const auto initial = makeTestGraph(48);
  const auto batches = makeBatches(initial, 4, 49);
  for (const FsyncPolicy policy :
       {FsyncPolicy::GroupCommit, FsyncPolicy::None}) {
    const fs::path sub = dir_ / (policy == FsyncPolicy::None ? "none" : "gc");
    ServiceOptions opt = durableOptions(/*checkpointEverySolves=*/0, policy);
    opt.durability.directory = sub.string();
    {
      RankService service(initial, opt);
      for (const auto& b : batches) ASSERT_TRUE(service.submit(b));
      service.drainAndStop();
      EXPECT_EQ(service.stats().journaledBatches, 4u);
    }
    RankService service(initial, opt);
    service.waitIdle();
    EXPECT_EQ(service.stats().replayedBatches, 4u);
    const SnapshotView v = service.snapshot();
    EXPECT_LT(linfNorm(v->ranks, offlineReference(initial, batches, 4)),
              v->toleranceBound);
  }
}

// ---------------------------------------------------------------------
// Walk-store resume (the PR 10 tentpole): restart of a MonteCarlo
// service resumes repairs from the checkpointed sidecar instead of
// rebuilding, replays only the journal suffix the checkpoint does not
// cover, and lands on the SAME walk store a journal-only rebuild does.

[[nodiscard]] ServiceOptions mcServiceOptions(ServiceOptions opt) {
  opt.stepEngine = ServiceOptions::StepEngine::MonteCarlo;
  opt.maxBatchesPerStep = 1;  // one repair per epoch: a fixed schedule
  opt.solver.mcWalksPerVertex = 4;
  return opt;
}

TEST_F(DurabilityTest, ServiceResumesWalkStoreFromSidecarAllFsyncPolicies) {
  const auto initial = makeTestGraph(70);
  const auto batches = makeBatches(initial, 6, 71);
  for (const FsyncPolicy policy :
       {FsyncPolicy::Batch, FsyncPolicy::GroupCommit, FsyncPolicy::None}) {
    const std::string label =
        "fsync policy " + std::to_string(static_cast<int>(policy));
    const fs::path resumeDir = dir_ / ("resume-" + label.substr(13));
    const fs::path rebuildDir = dir_ / ("rebuild-" + label.substr(13));

    // Run A: checkpoint every second publish — the final checkpoint's
    // sidecar covers batches 1..5, the journal tail holds batch 6.
    ServiceOptions ropt =
        mcServiceOptions(durableOptions(/*checkpointEverySolves=*/2, policy));
    ropt.durability.directory = resumeDir.string();
    // Run B: journal-only twin of the same schedule — the rebuild
    // oracle the resumed store must be bit-identical to.
    ServiceOptions jopt =
        mcServiceOptions(durableOptions(/*checkpointEverySolves=*/0, policy));
    jopt.durability.directory = rebuildDir.string();

    std::uint64_t fpA = 0;
    std::vector<double> ranksA;
    {
      RankService a(initial, ropt);
      RankService b(initial, jopt);
      for (const auto& batch : batches) {
        ASSERT_TRUE(a.submit(batch)) << label;
        a.waitIdle();
        ASSERT_TRUE(b.submit(batch)) << label;
        b.waitIdle();
      }
      a.drainAndStop();
      b.drainAndStop();
      EXPECT_EQ(a.stats().walkCheckpoints, 3u) << label;
      const SnapshotView va = a.snapshot();
      ASSERT_TRUE(va->monteCarlo) << label;
      fpA = va->mcFingerprint();
      ranksA = va->ranks;
      ASSERT_NE(fpA, 0u) << label;
      EXPECT_EQ(b.snapshot()->mcFingerprint(), fpA)
          << label << ": twin runs diverged before any restart";
    }
    {
      // Resume: the sidecar store (walk epoch 5) plus ONE replayed
      // repair must equal run A — and the recovered snapshot serves
      // personalized queries before replay even starts.
      RankService s(initial, ropt);
      EXPECT_EQ(s.stats().walkResumes, 1u) << label;
      EXPECT_FALSE(s.pprTopK(0, 3).empty())
          << label << ": recovered snapshot must carry the PPR index";
      s.waitIdle();
      const auto st = s.stats();
      EXPECT_EQ(st.replayedBatches, 1u)
          << label << ": resume must replay only the uncovered suffix";
      EXPECT_EQ(st.batchesApplied, 6u) << label;
      EXPECT_EQ(st.walkSidecarsQuarantined, 0u) << label;
      const SnapshotView v = s.snapshot();
      ASSERT_TRUE(v->monteCarlo) << label;
      EXPECT_EQ(v->mcFingerprint(), fpA)
          << label << ": resumed walk store diverged from the clean run";
      EXPECT_EQ(v->ranks, ranksA) << label;
    }
    {
      // Rebuild: full journal replay (build + 6 repairs) — same store.
      RankService s(initial, jopt);
      EXPECT_EQ(s.stats().walkResumes, 0u) << label;
      s.waitIdle();
      EXPECT_EQ(s.stats().replayedBatches, 6u) << label;
      const SnapshotView v = s.snapshot();
      ASSERT_TRUE(v->monteCarlo) << label;
      EXPECT_EQ(v->mcFingerprint(), fpA)
          << label << ": journal-only rebuild diverged from the clean run";
      EXPECT_EQ(v->ranks, ranksA) << label;
    }
  }
}

TEST_F(DurabilityTest, ServiceTornWalkSidecarFallsBackToJournalRebuild) {
  const auto initial = makeTestGraph(72);
  const auto batches = makeBatches(initial, 2, 73);
  ServiceOptions opt =
      mcServiceOptions(durableOptions(/*checkpointEverySolves=*/1));
  {
    RankService s(initial, opt);
    for (const auto& b : batches) {
      ASSERT_TRUE(s.submit(b));
      s.waitIdle();
    }
    s.drainAndStop();
    EXPECT_GE(s.stats().walkCheckpoints, 2u);
  }
  // Corrupt the surviving (pruned-to-newest) sidecar's payload.
  std::uint64_t newest = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        name.size() > 11 && name.compare(name.size() - 6, 6, ".walks") == 0)
      newest = std::max<std::uint64_t>(
          newest, std::strtoull(name.c_str() + 5, nullptr, 10));
  }
  ASSERT_GT(newest, 0u);
  const std::string walks = path("ckpt-" + std::to_string(newest) + ".walks");
  ASSERT_TRUE(fs::exists(walks));
  corruptByte(walks, sizeof(WalkSidecarHeader) + 17);

  std::vector<std::string> warnings;
  ServiceOptions ropt = opt;
  ropt.durability.onWarning = [&](const std::string& w) {
    warnings.push_back(w);
  };
  RankService s(initial, ropt);
  // The sidecar was quarantined; the exact ranks recovered anyway.
  EXPECT_EQ(s.stats().walkSidecarsQuarantined, 1u);
  EXPECT_EQ(s.stats().walkResumes, 0u);
  EXPECT_TRUE(fs::exists(walks + ".torn"));
  ASSERT_FALSE(warnings.empty());
  bool named = false;
  for (const auto& w : warnings)
    named = named || w.find(".walks.torn") != std::string::npos;
  EXPECT_TRUE(named) << "no warning names the quarantine file";

  // The next batch triggers the rebuild: build on the checkpoint graph,
  // then repair — mirror that exact schedule offline and demand
  // bit-identity.
  auto offline = DynamicDigraph::fromCsr(initial);
  offline.ensureSelfLoops();
  for (const auto& b : batches) offline.applyBatch(b);
  const auto ckptGraph = offline.toCsr();
  Rng rng(74);
  const auto extra = generateBatch(offline, 100, rng);
  offline.applyBatch(extra);
  const auto currGraph = offline.toCsr();

  ASSERT_TRUE(s.submit(extra));
  s.drainAndStop();
  const SnapshotView v = s.snapshot();
  ASSERT_TRUE(v->monteCarlo);

  detail::LfEngineState twin(initial.numVertices());
  ASSERT_TRUE(detail::lfMonteCarloStep(twin, ckptGraph, currGraph, extra,
                                       opt.solver, nullptr, "twin")
                  .converged);
  EXPECT_EQ(v->mcFingerprint(), twin.monteCarlo->fingerprint())
      << "the fallback rebuild must match the offline twin bit-for-bit";
}

// ---------------------------------------------------------------------
// Fail-point injection: transient retries, ENOSPC degradation, and the
// crash matrix (kill at every I/O site a clean run executes, restart,
// verify nothing acknowledged was lost).

TEST_F(DurabilityTest, TransientErrnoAndShortWritesAreRetried) {
  auto& fp = FailPoints::instance();
  IngestJournal j(path("journal"), kVertices, journalOptions());
  fp.armErrno("journal.append.write", EINTR, 2);
  EXPECT_EQ(j.append(sampleBatch(51)), 1u);
  fp.armErrno("journal.append.write", kFailPointShortWrite, 1);
  EXPECT_EQ(j.append(sampleBatch(52)), 2u);
  fp.armErrno("journal.append.fsync", EINTR, 1);
  EXPECT_EQ(j.append(sampleBatch(53)), 3u);
  fp.disarmAll();
  // All three records are intact despite the injected turbulence.
  IngestJournal reopened(path("journal"), kVertices, journalOptions());
  EXPECT_EQ(reopened.recovered().size(), 3u);
  EXPECT_EQ(reopened.quarantinedBytes(), 0u);
}

TEST_F(DurabilityTest, EnospcDegradesToServeStale) {
  const auto initial = makeTestGraph(54);
  const auto batches = makeBatches(initial, 3, 55);
  std::vector<std::string> warnings;
  auto opt = durableOptions(/*checkpointEverySolves=*/0);
  opt.durability.onWarning = [&](const std::string& w) {
    warnings.push_back(w);
  };
  RankService service(initial, opt);
  ASSERT_TRUE(service.submit(batches[0]));
  service.waitIdle();
  const std::uint64_t epochBefore = service.publishedEpoch();
  const std::vector<double> ranksBefore = service.ranks();

  FailPoints::instance().armErrno("journal.append.write", ENOSPC, 1);
  // The un-journalable batch is refused, not silently accepted.
  EXPECT_FALSE(service.submit(batches[1]));
  EXPECT_TRUE(service.degraded());
  EXPECT_TRUE(service.staleness().degraded);
  EXPECT_GE(service.stats().ioFailures, 1u);
  EXPECT_FALSE(warnings.empty());
  FailPoints::instance().disarmAll();

  // Serve-stale: the degradation latch holds even after the disk
  // "heals", readers keep the last good epoch, and queries still answer.
  EXPECT_FALSE(service.submit(batches[2]));
  EXPECT_FALSE(service.trySubmit(batches[2]));
  EXPECT_EQ(service.publishedEpoch(), epochBefore);
  EXPECT_EQ(service.ranks(), ranksBefore);
  service.stop();
}

TEST_F(DurabilityTest, QuotaExhaustedCheckpointDegradesToServeStale) {
  const auto initial = makeTestGraph(60);
  const auto batches = makeBatches(initial, 2, 61);
  std::vector<std::string> warnings;
  auto opt = durableOptions(/*checkpointEverySolves=*/1);
  opt.durability.onWarning = [&](const std::string& w) {
    warnings.push_back(w);
  };
  RankService service(initial, opt);
  service.waitForEpoch(1);
  service.waitIdle();
  ASSERT_FALSE(service.degraded());

  // EDQUOT is disk-full for a quota: the checkpoint's csr half must
  // degrade the service exactly as ENOSPC does, not skip a cadence tick.
  FailPoints::instance().armErrno("csr.write", EDQUOT, 1);
  ASSERT_TRUE(service.submit(batches[0]));
  service.waitIdle();
  FailPoints::instance().disarmAll();
  EXPECT_TRUE(service.degraded());
  EXPECT_TRUE(service.staleness().degraded);
  EXPECT_FALSE(service.submit(batches[1]));
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.back().find("checkpoint failed"), std::string::npos)
      << warnings.back();
  service.stop();
}

/// One kill-restart-verify act. Phase A: fresh service consumes the
/// first half of `batches`. Phase B: restart (recovery!) consumes the
/// second half. An armed kill may abort anywhere in either phase —
/// that's the simulated process death. Returns how many batches were
/// acknowledged before death; those are the durability guarantee set.
struct CrashOutcome {
  std::size_t acked = 0;
  bool died = false;
};

CrashOutcome runCrashScenario(const CsrGraph& initial,
                              const std::vector<BatchUpdate>& batches,
                              const ServiceOptions& opt) {
  CrashOutcome out;
  const std::size_t half = batches.size() / 2;
  try {
    RankService s(initial, opt);
    s.waitForEpoch(1);
    for (std::size_t i = 0; i < half; ++i) {
      if (!s.submit(batches[i])) break;  // degraded by an ingest-side kill
      ++out.acked;
      s.waitIdle();  // serialize steps so checkpoints interleave submits
    }
    s.drainAndStop();
  } catch (const FailPointAbort&) {
    out.died = true;
    return out;
  }
  if (FailPoints::instance().killed()) {
    out.died = true;
    return out;
  }
  try {
    RankService s(initial, opt);
    for (std::size_t i = half; i < batches.size(); ++i) {
      if (!s.submit(batches[i])) break;
      ++out.acked;
      s.waitIdle();
    }
    s.drainAndStop();
  } catch (const FailPointAbort&) {
    out.died = true;
  }
  if (FailPoints::instance().killed()) out.died = true;
  return out;
}

/// Disarmed recovery + verification half of every crash case: restart
/// over `dir`, let replay finish, resubmit everything past the durably
/// applied prefix, and check the final ranks against the offline twin
/// within the published certificate.
void verifyCrashRecovery(const std::string& dir, const CsrGraph& initial,
                         const std::vector<BatchUpdate>& batches,
                         ServiceOptions opt, std::size_t ackedBeforeDeath,
                         const std::string& label) {
  FailPoints::instance().disarmAll();
  opt.durability.directory = dir;
  RankService s(initial, opt);
  s.waitIdle();  // recovery replay (and its forced checkpoint) done
  const std::uint64_t applied = s.stats().batchesApplied;

  // THE durability guarantee: every acknowledged batch survived the
  // kill. (applied may exceed acked by journaled-but-unacked batches —
  // at-least-once, never lossy.)
  EXPECT_GE(applied, ackedBeforeDeath) << label;
  ASSERT_LE(applied, batches.size()) << label;

  // Journal order is submission order, so the durable prefix is exactly
  // batches[0..applied): resubmit the rest and the ranks must land on
  // the same fixpoint a crash-free run reaches.
  for (std::size_t i = applied; i < batches.size(); ++i)
    ASSERT_TRUE(s.submit(batches[i])) << label;
  s.drainAndStop();
  EXPECT_EQ(s.staleness().pendingBatches, 0u) << label;
  const SnapshotView v = s.snapshot();
  ASSERT_TRUE(v) << label;
  EXPECT_TRUE(v->converged) << label;
  EXPECT_LT(
      linfNorm(v->ranks, offlineReference(initial, batches, batches.size())),
      v->toleranceBound)
      << label;
}

/// Every fail point the durability stack registers, by name. The crash
/// matrix asserts everything a clean run traverses is in this reviewed
/// set, so adding an I/O site without a fail point review (or with a
/// typo'd name) fails the per-push failpoints job, not a nightly.
const std::set<std::string>& knownFailPoints() {
  static const std::set<std::string> known = {
      "csr.open",           "csr.write",
      "csr.fsync",          "csr.rename",
      "csr.backpatch",      "journal.reset.truncate",
      "elog.open",          "elog.write",
      "elog.fsync",         "elog.rename",
      "journal.open",       "journal.append.write",
      "journal.append.fsync", "journal.compact.write",
      "journal.compact.rename", "journal.quarantine.write",
      "ckpt.meta.open",     "ckpt.meta.write",
      "ckpt.meta.fsync",    "ckpt.meta.rename",
      "ckpt.walks.open",    "ckpt.walks.write",
      "ckpt.walks.fsync",   "ckpt.walks.rename",
      "ckpt.prune",         "mmap.open",
      "mmap.map",
  };
  return known;
}

void expectEnumeratedPointsRegistered(const std::vector<std::string>& points) {
  for (const auto& p : points)
    EXPECT_NE(knownFailPoints().count(p), 0u)
        << "fail point '" << p
        << "' is not in the reviewed registry: add it to knownFailPoints() "
           "and extend the crash matrix to cover its ordering";
}

/// The from-scratch MonteCarlo schedule a durable service must be
/// indistinguishable from after ANY kill + restart: build the walk
/// store on the initial graph, then repair once per batch in submission
/// order. Returns the store fingerprint and final ranks — both exact,
/// bit-level oracles (all MC randomness is counter-based and seeded).
struct McOracle {
  std::uint64_t fingerprint = 0;
  std::vector<double> ranks;
};

McOracle mcOracle(const CsrGraph& initial,
                  const std::vector<BatchUpdate>& batches,
                  const PageRankOptions& sopt) {
  auto g = DynamicDigraph::fromCsr(initial);
  g.ensureSelfLoops();
  detail::LfEngineState state(initial.numVertices());
  auto prev = g.toCsr();
  EXPECT_TRUE(
      detail::lfMonteCarloStep(state, prev, prev, {}, sopt, nullptr, "oracle")
          .converged);
  for (const auto& b : batches) {
    g.applyBatch(b);
    const auto curr = g.toCsr();
    EXPECT_TRUE(
        detail::lfMonteCarloStep(state, prev, curr, b, sopt, nullptr, "oracle")
            .converged);
    prev = curr;
  }
  McOracle out;
  out.fingerprint = state.monteCarlo->fingerprint();
  out.ranks = state.ranks.toVector();
  return out;
}

/// MonteCarlo flavour of verifyCrashRecovery: same at-least-once
/// durability checks, but the final assertion is the stronger PR 10
/// contract — the recovered-and-caught-up walk store is BIT-IDENTICAL
/// to the never-crashed schedule, whether the restart resumed from a
/// sidecar or rebuilt from the journal.
void verifyMcCrashRecovery(const std::string& dir, const CsrGraph& initial,
                           const std::vector<BatchUpdate>& batches,
                           ServiceOptions opt, std::size_t ackedBeforeDeath,
                           const McOracle& oracle, const std::string& label) {
  FailPoints::instance().disarmAll();
  opt.durability.directory = dir;
  RankService s(initial, opt);
  s.waitIdle();
  const std::uint64_t applied = s.stats().batchesApplied;
  EXPECT_GE(applied, ackedBeforeDeath) << label;
  ASSERT_LE(applied, batches.size()) << label;
  for (std::size_t i = applied; i < batches.size(); ++i) {
    ASSERT_TRUE(s.submit(batches[i])) << label;
    s.waitIdle();  // keep the one-repair-per-epoch schedule
  }
  s.drainAndStop();
  EXPECT_EQ(s.staleness().pendingBatches, 0u) << label;
  const SnapshotView v = s.snapshot();
  ASSERT_TRUE(v) << label;
  EXPECT_TRUE(v->converged) << label;
  ASSERT_TRUE(v->monteCarlo) << label;
  EXPECT_EQ(v->mcFingerprint(), oracle.fingerprint)
      << label
      << ": recovered walk store is not bit-identical to the from-scratch "
         "schedule";
  EXPECT_EQ(v->ranks, oracle.ranks) << label;
}

TEST_F(DurabilityTest, CrashMatrixEveryFailPointRecovers) {
  const auto initial = makeTestGraph(56);
  const auto batches = makeBatches(initial, 6, 57);
  auto& fp = FailPoints::instance();

  // Clean enumeration run (also a correctness check in its own right):
  // both phases execute with nothing armed, recording every fail point
  // the durability paths traverse — including the restart-recovery ones.
  fp.disarmAll();
  const fs::path cleanDir = dir_ / "clean";
  ServiceOptions opt = durableOptions(/*checkpointEverySolves=*/1);
  opt.durability.directory = cleanDir.string();
  const CrashOutcome clean =
      runCrashScenario(initial, batches, opt);
  ASSERT_FALSE(clean.died);
  ASSERT_EQ(clean.acked, batches.size());
  // Collect the enumeration BEFORE the verify pass (whose disarmAll
  // clears the seen-set as a side effect).
  const std::vector<std::string> points = fp.pointsSeen();
  verifyCrashRecovery(cleanDir.string(), initial, batches, opt, clean.acked,
                      "clean");
  ASSERT_GE(points.size(), 10u)
      << "the durability paths should traverse write/fsync/rename/mmap "
         "sites; the instrumentation went missing";
  expectEnumeratedPointsRegistered(points);

  // The matrix: one kill-restart-verify act per point.
  for (const std::string& point : points) {
    const std::string label = "fail point '" + point + "'";
    std::string safe = point;
    for (char& c : safe)
      if (c == '.' || c == '/') c = '_';
    const fs::path caseDir = dir_ / ("matrix-" + safe);
    ServiceOptions copt = durableOptions(/*checkpointEverySolves=*/1);
    copt.durability.directory = caseDir.string();

    fp.disarmAll();
    fp.armKill(point);
    const CrashOutcome outcome =
        runCrashScenario(initial, batches, copt);
    EXPECT_TRUE(outcome.died) << label << " never fired";
    verifyCrashRecovery(caseDir.string(), initial, batches, copt,
                        outcome.acked, label);
  }
}

// The PR 10 matrix: the same kill-everywhere discipline, but under the
// MonteCarlo engine with checkpointing on — so every act exercises the
// walk-sidecar ordering points (ckpt.walks.open/write/fsync/rename and
// ckpt.prune of superseded triples) alongside the pair's, and every
// recovery must produce a walk store BIT-IDENTICAL to the from-scratch
// schedule. This holds because the triple is written csr -> walks ->
// meta: a kill anywhere in the sidecar leaves no meta, so recovery
// lands on an older complete triple (resume) or no checkpoint at all
// (full replay) — both the same deterministic repair schedule.
TEST_F(DurabilityTest, McCrashMatrixRecoversBitIdenticalWalkStore) {
  const auto initial = makeTestGraph(80);
  const auto batches = makeBatches(initial, 6, 81);
  auto& fp = FailPoints::instance();

  ServiceOptions opt =
      mcServiceOptions(durableOptions(/*checkpointEverySolves=*/1));
  const McOracle oracle = mcOracle(initial, batches, opt.solver);

  fp.disarmAll();
  const fs::path cleanDir = dir_ / "clean";
  ServiceOptions clopt = opt;
  clopt.durability.directory = cleanDir.string();
  const CrashOutcome clean =
      runCrashScenario(initial, batches, clopt);
  ASSERT_FALSE(clean.died);
  ASSERT_EQ(clean.acked, batches.size());
  const std::vector<std::string> points = fp.pointsSeen();
  verifyMcCrashRecovery(cleanDir.string(), initial, batches, clopt,
                        clean.acked, oracle, "clean");
  expectEnumeratedPointsRegistered(points);
  for (const char* required :
       {"ckpt.walks.open", "ckpt.walks.write", "ckpt.walks.fsync",
        "ckpt.walks.rename", "ckpt.prune"}) {
    EXPECT_NE(std::count(points.begin(), points.end(), required), 0)
        << "'" << required
        << "' never fired in a checkpointing MonteCarlo run — the sidecar "
           "write path lost its instrumentation";
  }

  for (const std::string& point : points) {
    const std::string label = "mc fail point '" + point + "'";
    std::string safe = point;
    for (char& c : safe)
      if (c == '.' || c == '/') c = '_';
    const fs::path caseDir = dir_ / ("matrix-" + safe);
    ServiceOptions copt = opt;
    copt.durability.directory = caseDir.string();

    fp.disarmAll();
    fp.armKill(point);
    const CrashOutcome outcome =
        runCrashScenario(initial, batches, copt);
    EXPECT_TRUE(outcome.died) << label << " never fired";
    verifyMcCrashRecovery(caseDir.string(), initial, batches, copt,
                          outcome.acked, oracle, label);
  }
}

// Randomized lane (nightly runs this 100x with different seeds): pick a
// pseudo-random fail point and hit count from LFPR_CRASH_SEED and run
// one kill-restart-verify act. Deterministic per seed. Seeds alternate
// engines — odd seeds run MonteCarlo (sidecar resume paths, verified
// against the bit-identity oracle), even seeds the exact Pull engine —
// so a 100-seed night splits its kills evenly across both recovery
// shapes.
TEST_F(DurabilityTest, RandomizedCrashSeedRecovers) {
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("LFPR_CRASH_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  const bool monteCarlo = (seed % 2) == 1;
  const auto initial = makeTestGraph(58 + seed);
  const auto batches = makeBatches(initial, 6, 59 + seed);
  auto& fp = FailPoints::instance();

  ServiceOptions base = durableOptions(/*checkpointEverySolves=*/1);
  if (monteCarlo) base = mcServiceOptions(base);
  const McOracle oracle =
      monteCarlo ? mcOracle(initial, batches, base.solver) : McOracle{};

  // Enumerate from a clean run with this seed's workload.
  fp.disarmAll();
  const fs::path cleanDir = dir_ / "clean";
  ServiceOptions opt = base;
  opt.durability.directory = cleanDir.string();
  const CrashOutcome clean =
      runCrashScenario(initial, batches, opt);
  ASSERT_FALSE(clean.died);
  const std::vector<std::string> points = fp.pointsSeen();
  fp.disarmAll();
  ASSERT_FALSE(points.empty());

  Rng rng(seed);
  const std::string point = points[rng() % points.size()];
  const std::uint64_t hit = 1 + rng() % 3;
  const std::string label =
      "seed " + std::to_string(seed) + " (" +
      (monteCarlo ? "MonteCarlo" : "Pull") + "): kill '" + point + "' hit " +
      std::to_string(hit);

  const fs::path caseDir = dir_ / "case";
  ServiceOptions copt = base;
  copt.durability.directory = caseDir.string();
  fp.armKill(point, hit);
  const CrashOutcome outcome =
      runCrashScenario(initial, batches, copt);
  // A late hit index may never be reached; that is a (boring) clean run.
  if (monteCarlo)
    verifyMcCrashRecovery(caseDir.string(), initial, batches, copt,
                          outcome.acked, oracle, label);
  else
    verifyCrashRecovery(caseDir.string(), initial, batches, copt,
                        outcome.acked, label);
}

}  // namespace
}  // namespace lfpr
