// The on-disk scale subsystem: CSR snapshot files (write → mmap-read
// bit-identical, corrupt files rejected with clear errors), temporal
// edge logs, the out-of-core replay stream (bit-equal to the in-memory
// protocol), and the LFPR_DATASET_DIR cache (second load must not
// regenerate).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <unordered_set>
#include <vector>

#include "generate/generators.hpp"
#include "generate/temporal_replay.hpp"
#include "graph/csr_file.hpp"
#include "graph/edge_log.hpp"
#include "harness/datasets.hpp"
#include "pagerank/detail/common.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

namespace fs = std::filesystem;
/// gtest-only substring assert (no gmock dependency: libgmock-dev is a
/// separate package on Debian/Ubuntu and the CI matrix should not need it).
void expectContains(const char* what, const std::string& needle) {
  EXPECT_NE(std::string(what).find(needle), std::string::npos)
      << "message '" << what << "' lacks '" << needle << "'";
}

class CsrFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lfpr-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static CsrGraph sampleGraph() {
    Rng rng(7);
    auto edges = generateRmat(10, 6000, rng);
    appendSelfLoops(edges, 1024);
    return CsrGraph::fromEdges(1024, edges);
  }

  /// Overwrite bytes[offset..] with `bytes` in an existing file.
  static void corrupt(const std::string& file, std::uint64_t offset,
                      std::span<const char> bytes) {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static void truncateFile(const std::string& file, std::uint64_t newSize) {
    fs::resize_file(file, newSize);
  }

  fs::path dir_;
};

// --- snapshot round trip ----------------------------------------------------

TEST_F(CsrFileTest, MapRoundTripIsBitIdentical) {
  const CsrGraph g = sampleGraph();
  writeCsrFile(path("g.csr"), g);
  const CsrGraph mapped = mapCsrFile(path("g.csr"));

  EXPECT_TRUE(mapped.isMapped());
  EXPECT_FALSE(g.isMapped());
  EXPECT_EQ(mapped.numVertices(), g.numVertices());
  EXPECT_EQ(mapped.numEdges(), g.numEdges());
  // operator== compares offsets, targets, in-adjacency and the invOutDeg
  // cache element-wise — bit-identical, not tolerance-based.
  EXPECT_TRUE(mapped == g);
  EXPECT_NO_THROW(mapped.validate());
}

TEST_F(CsrFileTest, ReadRoundTripOwnsItsArrays) {
  const CsrGraph g = sampleGraph();
  writeCsrFile(path("g.csr"), g);
  CsrGraph owned = readCsrFile(path("g.csr"));
  EXPECT_FALSE(owned.isMapped());
  EXPECT_TRUE(owned == g);
  // The owned copy must survive the file disappearing.
  fs::remove(path("g.csr"));
  EXPECT_NO_THROW(owned.validate());
}

TEST_F(CsrFileTest, DeadEndsAndEmptyGraphRoundTrip) {
  // A dead end (vertex 2) keeps its 0.0 contribution cache entry through
  // the file: the invariant validate() checks.
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 2}};
  const CsrGraph g = CsrGraph::fromEdges(3, edges);
  writeCsrFile(path("dead.csr"), g);
  const CsrGraph mapped = mapCsrFile(path("dead.csr"));
  EXPECT_TRUE(mapped == g);
  EXPECT_EQ(mapped.invOutDegree(2), 0.0);

  const CsrGraph empty = CsrGraph::fromEdges(0, {});
  writeCsrFile(path("empty.csr"), empty);
  EXPECT_TRUE(mapCsrFile(path("empty.csr")) == empty);
}

TEST_F(CsrFileTest, MappedSnapshotFeedsPullKernels) {
  const CsrGraph g = sampleGraph();
  writeCsrFile(path("g.csr"), g);
  const CsrGraph mapped = mapCsrFile(path("g.csr"));

  const std::vector<double> ranks(g.numVertices(), 1.0 / g.numVertices());
  const double base = 0.15 / static_cast<double>(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    // Same arrays bit-for-bit => same kernel result bit-for-bit.
    EXPECT_EQ(detail::pullRank(mapped, ranks, v, 0.85, base),
              detail::pullRank(g, ranks, v, 0.85, base));
  }
}

// --- snapshot rejection -----------------------------------------------------

TEST_F(CsrFileTest, RejectsBadMagic) {
  writeCsrFile(path("g.csr"), sampleGraph());
  corrupt(path("g.csr"), 0, std::span("XXXX", 4));
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "bad magic");
    expectContains(e.what(), "g.csr");
  }
}

TEST_F(CsrFileTest, RejectsVersionSkew) {
  writeCsrFile(path("g.csr"), sampleGraph());
  const std::uint32_t future = kCsrFileVersion + 1;
  corrupt(path("g.csr"), offsetof(CsrFileHeader, version),
          {reinterpret_cast<const char*>(&future), sizeof(future)});
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "version");
    expectContains(e.what(), std::to_string(future));
  }
}

TEST_F(CsrFileTest, RejectsTruncation) {
  const CsrGraph g = sampleGraph();
  writeCsrFile(path("g.csr"), g);
  const auto full = fs::file_size(path("g.csr"));

  truncateFile(path("g.csr"), full - 1);
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "truncated");
  }

  truncateFile(path("g.csr"), sizeof(CsrFileHeader) / 2);
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "truncated");
    expectContains(e.what(), "header");
  }
}

TEST_F(CsrFileTest, RejectsChecksumMismatch) {
  writeCsrFile(path("g.csr"), sampleGraph());
  // Flip one payload byte mid-file; size arithmetic stays valid, so only
  // the checksum can catch it.
  const auto full = fs::file_size(path("g.csr"));
  corrupt(path("g.csr"), sizeof(CsrFileHeader) + (full - sizeof(CsrFileHeader)) / 2,
          std::span("\x5a", 1));
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "checksum");
  }
}

TEST_F(CsrFileTest, RejectsHeaderCountTamper) {
  writeCsrFile(path("g.csr"), sampleGraph());
  const std::uint64_t fewer = sampleGraph().numEdges() - 1;
  corrupt(path("g.csr"), offsetof(CsrFileHeader, numEdges),
          {reinterpret_cast<const char*>(&fewer), sizeof(fewer)});
  EXPECT_THROW(mapCsrFile(path("g.csr")), FileFormatError);
}

/// Overwrite the u64 at `offset` in `file`.
void putU64(const std::string& file, std::uint64_t offset, std::uint64_t value) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void expectFormatError(const std::function<void()>& load, const std::string& file,
                       const std::string& field) {
  try {
    load();
    FAIL() << "expected FileFormatError naming " << field;
  } catch (const FileFormatError& e) {
    EXPECT_EQ(e.path(), file);
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

TEST_F(CsrFileTest, RejectsEdgeCountWhoseByteSizeWraps) {
  // Empty graph, numEdges = 2^62: numEdges * 4 wraps to 0, so the byte
  // sizes alone describe the file exactly and nothing else reads |E|.
  const std::string empty = path("empty.csr");
  writeCsrFile(empty, CsrGraph::fromEdges(0, {}));
  putU64(empty, offsetof(CsrFileHeader, numEdges), std::uint64_t{1} << 62);
  expectFormatError([&] { (void)mapCsrFile(empty); }, empty, "numEdges");

  // One vertex with a self-loop, numEdges = 2^62 + 1: the wrapped size
  // is the real one-edge section, and the forger also rewrites both
  // offset arrays' last entry and the payload checksum to agree.
  const std::string one = path("one.csr");
  const std::vector<Edge> loop{{0, 0}};
  writeCsrFile(one, CsrGraph::fromEdges(1, loop));
  const std::uint64_t forged = (std::uint64_t{1} << 62) + 1;
  constexpr std::uint64_t payload = sizeof(CsrFileHeader);
  putU64(one, offsetof(CsrFileHeader, numEdges), forged);
  putU64(one, payload + 8, forged);       // outOffsets[1]
  putU64(one, payload + 16 + 8 + 8, forged);  // inOffsets[1]
  std::ifstream in(one, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), {});
  putU64(one, offsetof(CsrFileHeader, checksum),
         checksum64(std::as_bytes(std::span(bytes).subspan(payload))));
  expectFormatError([&] { (void)mapCsrFile(one); }, one, "numEdges");
}

TEST_F(CsrFileTest, OversizedVertexCountNamesCountAndLimit) {
  // Regression: both loaders' >32-bit vertex-count rejection must name
  // the offending count AND the supported maximum — a bare "too big"
  // gave operators nothing to compare against their graph size.
  const std::uint64_t huge = std::uint64_t{1} << 33;
  const std::string limit = "4294967294";  // VertexId max - 1

  writeCsrFile(path("g.csr"), sampleGraph());
  corrupt(path("g.csr"), offsetof(CsrFileHeader, numVertices),
          {reinterpret_cast<const char*>(&huge), sizeof(huge)});
  try {
    mapCsrFile(path("g.csr"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), std::to_string(huge));
    expectContains(e.what(), limit);
  }
}

TEST_F(CsrFileTest, MissingFileErrorNamesThePath) {
  try {
    mapCsrFile(path("nope.csr"));
    FAIL() << "expected an error";
  } catch (const std::runtime_error& e) {
    expectContains(e.what(), "nope.csr");
  }
}

TEST_F(CsrFileTest, WriterLeavesNoPartialFileBehind) {
  // The writer publishes via rename: the target name either has the full
  // snapshot or nothing, even though a pid-suffixed .tmp existed
  // mid-write.
  writeCsrFile(path("g.csr"), sampleGraph());
  for (const auto& entry : fs::directory_iterator(dir_))
    EXPECT_EQ(entry.path().filename(), "g.csr")
        << "stray scratch file: " << entry.path();
  EXPECT_NO_THROW(mapCsrFile(path("g.csr")).validate());
}

// --- temporal edge log ------------------------------------------------------

TemporalEdgeListData sampleStream(EdgeId edges = 5000) {
  Rng rng(11);
  TemporalEdgeListData data;
  data.numVertices = 600;
  data.edges = generateTemporalStream(600, edges, 0.4, rng, 0.05, 30);
  return data;
}

TEST_F(CsrFileTest, EdgeLogRoundTripSortedByTime) {
  const auto data = sampleStream();
  writeTemporalEdgeLog(path("s.elog"), data);
  EXPECT_NO_THROW(verifyTemporalEdgeLog(path("s.elog")));

  const auto back = readTemporalEdgeLog(path("s.elog"));
  EXPECT_EQ(back.numVertices, data.numVertices);
  ASSERT_EQ(back.edges.size(), data.edges.size());
  // The log is stored stable-sorted by timestamp (the replay order).
  auto sorted = data.edges;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });
  EXPECT_EQ(back.edges, sorted);
}

TEST_F(CsrFileTest, EdgeLogHeaderCarriesStaticEdgeCount) {
  const auto data = sampleStream();
  writeTemporalEdgeLog(path("s.elog"), data);
  TemporalEdgeLogReader reader(path("s.elog"));

  std::unordered_set<Edge, EdgeHash> distinct;
  for (const auto& e : data.edges) distinct.insert({e.src, e.dst});
  EXPECT_EQ(reader.numStaticEdges(), distinct.size());
  EXPECT_EQ(reader.numEdges(), data.edges.size());
  EXPECT_EQ(reader.numVertices(), data.numVertices);
}

TEST_F(CsrFileTest, EdgeLogReaderStreamsChunksAndSeeks) {
  const auto data = sampleStream(1000);
  writeTemporalEdgeLog(path("s.elog"), data);
  const auto whole = readTemporalEdgeLog(path("s.elog"));

  TemporalEdgeLogReader reader(path("s.elog"));
  std::vector<TemporalEdge> streamed;
  std::vector<TemporalEdge> chunk(97);  // deliberately not a divisor
  std::size_t got;
  while ((got = reader.read(chunk)) != 0)
    streamed.insert(streamed.end(), chunk.begin(), chunk.begin() + got);
  EXPECT_EQ(streamed, whole.edges);

  reader.seek(500);
  ASSERT_EQ(reader.read(std::span(chunk.data(), 1)), 1u);
  EXPECT_EQ(chunk[0], whole.edges[500]);
  reader.seek(whole.edges.size());
  EXPECT_EQ(reader.read(chunk), 0u);
}

TEST_F(CsrFileTest, EdgeLogOversizedVertexCountNamesCountAndLimit) {
  // Same message-discipline regression as the CSR loader: the edge-log
  // vertex-count guard must name the count and the supported maximum
  // (the check runs before the checksum, so the tamper is reachable).
  writeTemporalEdgeLog(path("s.elog"), sampleStream());
  const std::uint64_t huge = std::uint64_t{1} << 33;
  corrupt(path("s.elog"), offsetof(EdgeLogHeader, numVertices),
          {reinterpret_cast<const char*>(&huge), sizeof(huge)});
  try {
    readTemporalEdgeLog(path("s.elog"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), std::to_string(huge));
    expectContains(e.what(), "4294967294");
  }
}

TEST_F(CsrFileTest, EdgeLogRejectsRecordCountWhoseByteSizeWraps) {
  // (2^60 + 1) records * 16 bytes wraps to the one record present; the
  // checksum covers the records only, so it still verifies.
  TemporalEdgeListData one;
  one.numVertices = 4;
  one.edges = {{1, 2, 7}};
  const std::string log = path("s.elog");
  writeTemporalEdgeLog(log, one);
  putU64(log, offsetof(EdgeLogHeader, numEdges), (std::uint64_t{1} << 60) + 1);
  expectFormatError([&] { (void)readTemporalEdgeLog(log); }, log, "numEdges");
  expectFormatError([&] { verifyTemporalEdgeLog(log); }, log, "numEdges");
  expectFormatError([&] { TemporalEdgeLogReader r(log); }, log, "numEdges");
}

TEST_F(CsrFileTest, EdgeLogRejectsCorruption) {
  writeTemporalEdgeLog(path("s.elog"), sampleStream());

  corrupt(path("s.elog"), 0, std::span("ZZ", 2));
  EXPECT_THROW(TemporalEdgeLogReader r(path("s.elog")), FileFormatError);

  writeTemporalEdgeLog(path("s.elog"), sampleStream());
  const std::uint32_t future = kEdgeLogVersion + 9;
  corrupt(path("s.elog"), offsetof(EdgeLogHeader, version),
          {reinterpret_cast<const char*>(&future), sizeof(future)});
  try {
    readTemporalEdgeLog(path("s.elog"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "version");
  }

  writeTemporalEdgeLog(path("s.elog"), sampleStream());
  truncateFile(path("s.elog"), fs::file_size(path("s.elog")) - 8);
  EXPECT_THROW(verifyTemporalEdgeLog(path("s.elog")), FileFormatError);

  writeTemporalEdgeLog(path("s.elog"), sampleStream());
  corrupt(path("s.elog"), sizeof(EdgeLogHeader) + 64, std::span("\x7e", 1));
  try {
    verifyTemporalEdgeLog(path("s.elog"));
    FAIL() << "expected FileFormatError";
  } catch (const FileFormatError& e) {
    expectContains(e.what(), "checksum");
  }
}

// --- out-of-core replay -----------------------------------------------------

TEST_F(CsrFileTest, StreamedReplayMatchesInMemoryReplay) {
  const auto data = sampleStream(4000);
  writeTemporalEdgeLog(path("s.elog"), data);

  for (const double fraction : {2e-3, 1e-2}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{3}}) {
      const auto inMemory = makeTemporalReplay(data, 0.9, fraction, cap);
      const TemporalReplayStream stream(path("s.elog"), 0.9, fraction, cap);

      EXPECT_EQ(stream.numTemporalEdges(), inMemory.numTemporalEdges);
      EXPECT_EQ(stream.numStaticEdges(), inMemory.numStaticEdges);
      EXPECT_TRUE(DynamicDigraph(stream.initial()).toCsr() ==
                  DynamicDigraph(inMemory.initial).toCsr());
      ASSERT_EQ(stream.numBatches(), inMemory.batches.size());

      auto cursor = stream.batches();
      BatchUpdate batch;
      std::size_t i = 0;
      while (cursor.next(batch)) {
        ASSERT_LT(i, inMemory.batches.size());
        EXPECT_TRUE(batch.deletions.empty());
        EXPECT_EQ(batch.insertions, inMemory.batches[i].insertions)
            << "fraction " << fraction << " cap " << cap << " batch " << i;
        ++i;
      }
      EXPECT_EQ(i, inMemory.batches.size());
    }
  }
}

TEST_F(CsrFileTest, ReplayCursorsAreIndependent) {
  const auto data = sampleStream(2000);
  writeTemporalEdgeLog(path("s.elog"), data);
  const TemporalReplayStream stream(path("s.elog"), 0.8, 1e-2, 0);

  auto a = stream.batches();
  auto b = stream.batches();
  BatchUpdate ba, bb;
  while (a.next(ba)) {
    ASSERT_TRUE(b.next(bb));  // b is not perturbed by a's progress
    EXPECT_EQ(ba.insertions, bb.insertions);
  }
  EXPECT_FALSE(b.next(bb));
}

// --- dataset cache ----------------------------------------------------------

class DatasetCacheTest : public CsrFileTest {
 protected:
  void SetUp() override {
    CsrFileTest::SetUp();
    const char* prev = std::getenv("LFPR_DATASET_DIR");
    if (prev != nullptr) saved_ = prev;
    ::setenv("LFPR_DATASET_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (saved_.empty())
      ::unsetenv("LFPR_DATASET_DIR");
    else
      ::setenv("LFPR_DATASET_DIR", saved_.c_str(), 1);
    CsrFileTest::TearDown();
  }

  /// A tiny spec whose build counts invocations — the cache contract is
  /// "generate once", observable as exactly one build call.
  DatasetSpec countingSpec(int* counter) {
    return DatasetSpec{"cache-probe", "web", "none", 0, 0, 0,
                       [counter](std::uint64_t seed) {
                         ++*counter;
                         Rng rng(seed);
                         auto edges = generateRmat(8, 1200, rng);
                         appendSelfLoops(edges, 256);
                         return DynamicDigraph::fromEdges(256, edges);
                       }};
  }

  std::string saved_;
};

TEST_F(DatasetCacheTest, SecondLoadHitsTheCacheWithoutRegenerating) {
  int builds = 0;
  const auto spec = countingSpec(&builds);

  bool generated = false;
  const CsrGraph first = loadDatasetCsr(spec, 2, 5, &generated);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(generated);
  EXPECT_TRUE(first.isMapped());  // persisted and mapped even on the miss

  const CsrGraph second = loadDatasetCsr(spec, 2, 5, &generated);
  EXPECT_EQ(builds, 1) << "cache hit must not regenerate";
  EXPECT_FALSE(generated);
  EXPECT_TRUE(second.isMapped());
  EXPECT_TRUE(second == spec.build(5).toCsr());  // and it is the right graph
  builds = 0;

  // Different seed or scale = different key = fresh build.
  loadDatasetCsr(spec, 2, 6);
  EXPECT_EQ(builds, 1);
  loadDatasetCsr(spec, 1, 5);
  EXPECT_EQ(builds, 2);
}

TEST_F(DatasetCacheTest, GraphLoaderReconstructsFromSnapshotOnHit) {
  int builds = 0;
  const auto spec = countingSpec(&builds);

  DynamicDigraph built = loadDatasetGraph(spec, 0, 3);
  EXPECT_EQ(builds, 1);
  DynamicDigraph reloaded = loadDatasetGraph(spec, 0, 3);
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(reloaded.toCsr() == built.toCsr());
}

TEST_F(DatasetCacheTest, DisabledCacheRebuildsEveryTime) {
  ::unsetenv("LFPR_DATASET_DIR");
  int builds = 0;
  const auto spec = countingSpec(&builds);
  EXPECT_FALSE(loadDatasetCsr(spec, 0, 1).isMapped());
  loadDatasetCsr(spec, 0, 1);
  EXPECT_EQ(builds, 2);
}

TEST_F(DatasetCacheTest, TemporalLogIsWrittenOnceAndReplayable) {
  int builds = 0;
  const TemporalDatasetSpec spec{
      "cache-probe-temporal", "none", 0, 0, 0, [&builds](std::uint64_t seed) {
        ++builds;
        Rng rng(seed);
        TemporalEdgeListData data;
        data.numVertices = 200;
        data.edges = generateTemporalStream(200, 2000, 0.3, rng, 0.05, 10);
        return data;
      }};
  const std::string p1 = temporalLogPath(spec, 1, 2);
  const std::string p2 = temporalLogPath(spec, 1, 2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(builds, 1);
  EXPECT_NO_THROW(verifyTemporalEdgeLog(p1));
  const TemporalReplayStream stream(p1, 0.9, 1e-2, 2);
  EXPECT_EQ(stream.numBatches(), 2u);
}

}  // namespace
}  // namespace lfpr
