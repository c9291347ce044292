// Deterministic mutation fuzzer over the five on-disk formats: CSR
// snapshot, temporal edge log, ingest journal, checkpoint meta and walk
// sidecar. Each case writes tiny well-formed files, applies seeded
// mutations — bit flips, truncation and extension, inflated or wrapping
// length fields with and without a recomputed checksum, swapped CSR
// sections, stale cross-file bindings — and runs the loaders. Every
// outcome must be one of:
//
//   - a loaded object that passes structural validation;
//   - a FileFormatError naming the file and the field;
//   - for the journal and the walk sidecar, a quarantine with a warning
//     whose reason names the file.
//
// Any other exception fails the case; crashes and over-allocations are
// the sanitizer builds' to report. Checksums are recomputed only around
// inflated or wrapping lengths: a forger who rewrites content and
// checksum together can write any well-framed payload, and rejecting
// well-framed but structurally invalid content is CsrGraph::validate()'s
// job, not the framing's.
//
// The seed is fixed. Under --gtest_shuffle (the stress-formats ctest
// entry) each repeat mixes in gtest's per-iteration random seed, so
// repeats explore different mutations; a failure prints both seeds, and
// --gtest_shuffle --gtest_random_seed=<gtest seed> reproduces it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "generate/batch_gen.hpp"
#include "graph/csr_file.hpp"
#include "graph/dynamic_digraph.hpp"
#include "graph/edge_log.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/monte_carlo.hpp"
#include "service/checkpoint.hpp"
#include "service/ingest_journal.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace lfpr {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::byte>;

/// Mutations per format per run: a few seconds in tier-1, and 10^5 per
/// format over the nightly lane's 100 repeats.
constexpr int kMutations = 1000;

Bytes readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chars((std::istreambuf_iterator<char>(in)), {});
  Bytes out(chars.size());
  if (!chars.empty()) std::memcpy(out.data(), chars.data(), chars.size());
  return out;
}

void writeFile(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T get(const Bytes& b, std::size_t offset) {
  T v{};
  std::memcpy(&v, b.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void put(Bytes& b, std::size_t offset, T value) {
  std::memcpy(b.data() + offset, &value, sizeof(T));
}

std::uint64_t payloadChecksum(const Bytes& b, std::size_t from) {
  return checksum64(std::span(b).subspan(from));
}

/// A length field's hostile replacement: the count whose byte size wraps
/// 64 bits back onto the original for one of the formats' element
/// sizes (2, 4, 8, 16 bytes), a fixed wrapping value, or an inflation by
/// at least 16 elements.
std::uint64_t hostileLength(Rng& rng, std::uint64_t orig) {
  static constexpr std::uint64_t kFixed[] = {
      std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 62,
      (std::uint64_t{1} << 62) + 1, std::uint64_t{1} << 63, ~std::uint64_t{0},
      ~std::uint64_t{0} - 7};
  switch (rng() % 3) {
    case 0: return orig + (std::uint64_t{1} << (60 + rng() % 4));
    case 1: return kFixed[rng() % std::size(kFixed)];
    default: return orig + (std::uint64_t{16} << (rng() % 40));
  }
}

std::uint32_t hostileLength32(Rng& rng, std::uint32_t orig) {
  static constexpr std::uint32_t kFixed[] = {0x7fffffffu, 0x80000000u, 0xfffffff0u,
                                             0xffffffffu, 1u << 20};
  return rng() % 2 == 0 ? kFixed[rng() % std::size(kFixed)]
                        : orig + static_cast<std::uint32_t>(1 + rng() % 64);
}

/// The mutations every format shares. Returns false when `kind` is
/// format-specific (the caller handles it).
bool commonMutation(Rng& rng, int kind, Bytes& b) {
  switch (kind) {
    case 0:  // bit flips
      for (int i = 0, flips = 1 + static_cast<int>(rng() % 3); i < flips && !b.empty(); ++i)
        b[rng() % b.size()] ^= static_cast<std::byte>(1u << (rng() % 8));
      return true;
    case 1:  // truncation
      b.resize(b.empty() ? 0 : rng() % b.size());
      return true;
    case 2:  // extension
      for (int i = 0, extra = 1 + static_cast<int>(rng() % 64); i < extra; ++i)
        b.push_back(static_cast<std::byte>(rng()));
      return true;
    default:
      return false;
  }
}

class FormatFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lfpr-fuzz-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    const auto gtestSeed =
        static_cast<std::uint64_t>(::testing::UnitTest::GetInstance()->random_seed());
    seed_ = 0x5eedf00dULL ^ (gtestSeed * 0x9e3779b97f4a7c15ULL);
    rng_.reseed(seed_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string label(int i, int kind) const {
    return "seed " + std::to_string(seed_) + " (gtest random seed " +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
           "), mutation " + std::to_string(i) + " kind " + std::to_string(kind);
  }

  /// Run `load`, which validates what it loaded: it either succeeds or
  /// throws a FileFormatError naming `file`.
  static void expectLoadOrNamedError(const std::string& file, const std::string& what,
                                     const std::function<void()>& load) {
    try {
      load();
    } catch (const FileFormatError& e) {
      EXPECT_EQ(e.path(), file) << what << ": " << e.what();
      EXPECT_FALSE(e.field().empty()) << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": a loader let a non-format error escape: " << e.what();
    }
  }

  fs::path dir_;
  std::uint64_t seed_ = 0;
  Rng rng_;
};

// --- CSR snapshot -----------------------------------------------------------

TEST_F(FormatFuzzTest, CsrSnapshot) {
  // 12 vertices, 13 edges (odd, so the target sections carry padding),
  // vertex 11 a dead end.
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4},  {4, 5},
                                {5, 6}, {6, 7}, {7, 8}, {8, 9},  {9, 10},
                                {10, 0}, {0, 5}, {3, 11}};
  const CsrGraph g = CsrGraph::fromEdges(12, edges);
  const std::string file = path("g.csr");
  writeCsrFile(file, g);
  const Bytes pristine = readFile(file);
  const std::size_t head = sizeof(CsrFileHeader);
  const std::size_t n = g.numVertices(), m = g.numEdges();
  const std::size_t offsetsBytes = (n + 1) * 8, targetsBytes = (m * 4 + 7) / 8 * 8;
  const std::size_t outOffsets = head, outTargets = head + offsetsBytes,
                    inOffsets = outTargets + targetsBytes,
                    inSources = inOffsets + offsetsBytes;
  static constexpr std::size_t kLengths[] = {offsetof(CsrFileHeader, numVertices),
                                             offsetof(CsrFileHeader, numEdges),
                                             offsetof(CsrFileHeader, payloadBytes)};

  for (int i = 0; i < kMutations; ++i) {
    Bytes b = pristine;
    const int kind = static_cast<int>(rng_() % 6);
    if (!commonMutation(rng_, kind, b)) {
      if (kind == 3) {  // a length field, checksum untouched
        const std::size_t at = kLengths[rng_() % std::size(kLengths)];
        put(b, at, hostileLength(rng_, get<std::uint64_t>(b, at)));
      } else if (kind == 4) {  // |E| and both offset endpoints, re-checksummed
        const std::uint64_t forged = hostileLength(rng_, m);
        put(b, offsetof(CsrFileHeader, numEdges), forged);
        put(b, outOffsets + n * 8, forged);
        put(b, inOffsets + n * 8, forged);
        put(b, offsetof(CsrFileHeader, checksum), payloadChecksum(b, head));
      } else {  // swapped equal-size sections
        const bool offsets = rng_() % 2 == 0;
        const std::size_t a = offsets ? outOffsets : outTargets;
        const std::size_t c = offsets ? inOffsets : inSources;
        std::swap_ranges(b.begin() + static_cast<std::ptrdiff_t>(a),
                         b.begin() + static_cast<std::ptrdiff_t>(a + (offsets ? offsetsBytes : targetsBytes)),
                         b.begin() + static_cast<std::ptrdiff_t>(c));
      }
    }
    writeFile(file, b);
    expectLoadOrNamedError(file, label(i, kind), [&] {
      const CsrGraph loaded = mapCsrFile(file);
      EXPECT_NO_THROW(loaded.validate()) << label(i, kind);
      // validate() cannot see a count larger than the bytes behind it.
      EXPECT_LE(loaded.numEdges(), b.size() / sizeof(VertexId)) << label(i, kind);
    });
  }
}

// --- temporal edge log ------------------------------------------------------

TEST_F(FormatFuzzTest, EdgeLog) {
  constexpr VertexId kN = 40;
  TemporalEdgeListData data;
  data.numVertices = kN;
  Rng gen(5);
  for (int i = 0; i < 30; ++i)
    data.edges.push_back({static_cast<VertexId>(gen() % kN),
                          static_cast<VertexId>(gen() % kN),
                          static_cast<std::uint64_t>(gen() % 10)});
  const std::string file = path("s.elog");
  writeTemporalEdgeLog(file, data);
  const Bytes pristine = readFile(file);
  const std::size_t head = sizeof(EdgeLogHeader);
  static constexpr std::size_t kLengths[] = {
      offsetof(EdgeLogHeader, numVertices), offsetof(EdgeLogHeader, numEdges),
      offsetof(EdgeLogHeader, numStaticEdges), offsetof(EdgeLogHeader, payloadBytes)};

  const auto checkEdges = [](std::span<const TemporalEdge> edges, VertexId n,
                             const std::string& what) {
    for (const TemporalEdge& e : edges) {
      EXPECT_LT(e.src, n) << what;
      EXPECT_LT(e.dst, n) << what;
    }
  };
  for (int i = 0; i < kMutations; ++i) {
    Bytes b = pristine;
    const int kind = static_cast<int>(rng_() % 6);
    if (!commonMutation(rng_, kind, b)) {
      if (kind == 3) {  // a length field, checksum untouched
        const std::size_t at = kLengths[rng_() % std::size(kLengths)];
        put(b, at, hostileLength(rng_, get<std::uint64_t>(b, at)));
      } else if (kind == 4) {  // |E_T| with a payload size that agrees mod 2^64
        const std::uint64_t forged = hostileLength(rng_, data.edges.size());
        put(b, offsetof(EdgeLogHeader, numEdges), forged);
        put(b, offsetof(EdgeLogHeader, payloadBytes), forged * sizeof(TemporalEdge));
      } else {  // an out-of-range endpoint, re-checksummed
        const std::size_t record = head + (rng_() % data.edges.size()) * sizeof(TemporalEdge);
        put(b, record + (rng_() % 2) * sizeof(VertexId),
            static_cast<VertexId>(kN + rng_() % 1000));
        put(b, offsetof(EdgeLogHeader, checksum), payloadChecksum(b, head));
      }
    }
    writeFile(file, b);
    const std::string what = label(i, kind);
    expectLoadOrNamedError(file, what + " read", [&] {
      const auto loaded = readTemporalEdgeLog(file);
      checkEdges(loaded.edges, loaded.numVertices, what);
    });
    expectLoadOrNamedError(file, what + " verify", [&] { verifyTemporalEdgeLog(file); });
    for (const LogTailPolicy tail : {LogTailPolicy::Strict, LogTailPolicy::QuarantineTorn}) {
      expectLoadOrNamedError(file, what + " reader", [&] {
        TemporalEdgeLogReader reader(file, tail);
        std::vector<TemporalEdge> chunk(7);
        EdgeId total = 0;
        for (std::size_t got; (got = reader.read(chunk)) != 0; total += got)
          checkEdges(std::span(chunk).first(got), reader.numVertices(), what);
        EXPECT_EQ(total, reader.numEdges()) << what;
      });
    }
  }
}

// --- ingest journal ---------------------------------------------------------

TEST_F(FormatFuzzTest, Journal) {
  constexpr VertexId kN = 64;
  const std::string file = path("journal");
  std::vector<std::string> warnings;
  IngestJournal::Options opt;
  opt.fsync = FsyncPolicy::None;
  opt.onWarning = [&](const std::string& w) { warnings.push_back(w); };
  {
    IngestJournal j(file, kN, opt);
    Rng gen(9);
    for (int r = 0; r < 6; ++r) {
      BatchUpdate batch;
      for (int e = 0; e < 5; ++e)
        (e % 2 == 0 ? batch.insertions : batch.deletions)
            .push_back({static_cast<VertexId>(gen() % kN), static_cast<VertexId>(gen() % kN)});
      j.append(batch);
    }
  }
  const Bytes pristine = readFile(file);
  std::vector<std::size_t> records;
  for (std::size_t at = sizeof(JournalHeader); at < pristine.size();) {
    records.push_back(at);
    const auto rh = get<JournalRecordHeader>(pristine, at);
    at += sizeof(rh) + (std::size_t{rh.numDeletions} + rh.numInsertions) * sizeof(Edge);
  }

  for (int i = 0; i < kMutations; ++i) {
    Bytes b = pristine;
    const int kind = static_cast<int>(rng_() % 6);
    const std::size_t rec = records[rng_() % records.size()];
    const std::size_t count = rec + offsetof(JournalRecordHeader, numDeletions) +
                              (rng_() % 2) * sizeof(std::uint32_t);
    if (!commonMutation(rng_, kind, b)) {
      if (kind == 3) {  // a record's edge count, checksum untouched
        put(b, count, hostileLength32(rng_, get<std::uint32_t>(b, count)));
      } else if (kind == 4) {  // the same, re-checksummed over the new extent
        put(b, count, hostileLength32(rng_, get<std::uint32_t>(b, count)));
        const auto rh = get<JournalRecordHeader>(b, rec);
        const std::uint64_t payload =
            (std::uint64_t{rh.numDeletions} + rh.numInsertions) * sizeof(Edge);
        if (payload <= b.size() - rec - sizeof(rh))
          put(b, rec + offsetof(JournalRecordHeader, checksum),
              checksum64(std::span(b).subspan(rec + sizeof(rh), payload)));
      } else {  // a journal bound to another vertex set
        put(b, offsetof(JournalHeader, numVertices), std::uint64_t{kN} + 1 + rng_() % 100);
      }
    }
    writeFile(file, b);
    fs::remove(file + ".torn");
    fs::remove(file + ".torn-file");
    warnings.clear();
    const std::string what = label(i, kind);
    std::size_t kept = 0;
    try {
      IngestJournal j(file, kN, opt);
      std::uint64_t prev = 0;
      for (const auto& r : j.recovered()) {
        EXPECT_TRUE(prev == 0 || r.seq == prev + 1) << what;
        prev = r.seq;
        for (const auto* list : {&r.batch.deletions, &r.batch.insertions})
          for (const Edge& e : *list) {
            EXPECT_LT(e.src, kN) << what;
            EXPECT_LT(e.dst, kN) << what;
          }
      }
      if (j.quarantinedBytes() != 0) {
        EXPECT_FALSE(warnings.empty()) << what;
      }
      for (const auto& w : warnings) EXPECT_NE(w.find(file), std::string::npos) << what;
      kept = j.recovered().size();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": journal recovery threw: " << e.what();
      continue;
    }
    // Quarantine leaves a well-formed file: a second open is clean.
    IngestJournal again(file, kN, opt);
    EXPECT_EQ(again.quarantinedBytes(), 0u) << what;
    EXPECT_EQ(again.recovered().size(), kept) << what;
  }
}

// --- checkpoint meta, walk sidecar and their csr ----------------------------

TEST_F(FormatFuzzTest, CheckpointMetaAndWalkSidecar) {
  constexpr VertexId kN = 48;
  PageRankOptions sopt;
  sopt.numThreads = 1;
  sopt.mcWalksPerVertex = 2;
  sopt.mcMaxWalkLength = 8;
  Rng gen(13);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < kN; ++v) {
    edges.push_back({v, v});
    edges.push_back({v, static_cast<VertexId>(gen() % kN)});
  }
  auto dg = DynamicDigraph::fromEdges(kN, edges);
  const CsrGraph initial = dg.toCsr();
  detail::LfEngineState state(kN);
  ASSERT_TRUE(detail::lfMonteCarloStep(state, initial, initial, {}, sopt, nullptr, "fuzz")
                  .converged);
  auto prev = initial;
  for (const std::uint64_t epoch : {3, 5}) {
    const auto batch = generateBatch(dg, 6, gen);
    dg.applyBatch(batch);
    const auto curr = dg.toCsr();
    ASSERT_TRUE(detail::lfMonteCarloStep(state, prev, curr, batch, sopt, nullptr, "fuzz")
                    .converged);
    prev = curr;
    CheckpointData d;
    d.epoch = epoch;
    d.journalSeq = epoch * 10;
    d.graph = curr;
    d.ranks.assign(kN, 1.0 / kN);
    d.walks = detail::mcSerializeStore(*state.monteCarlo);
    writeCheckpoint(dir_.string(), d);
  }
  const std::vector<std::string> names{"ckpt-3.csr", "ckpt-3.meta", "ckpt-3.walks",
                                       "ckpt-5.csr", "ckpt-5.meta", "ckpt-5.walks"};
  std::vector<Bytes> pristine;
  for (const auto& name : names) pristine.push_back(readFile(path(name)));
  const std::size_t walkHead = sizeof(WalkSidecarHeader);
  const std::size_t walksBytes = pristine[5].size() - walkHead;
  const auto segmentBytes = get<std::uint64_t>(pristine[5], offsetof(WalkSidecarHeader, segmentBytes));

  for (int i = 0; i < kMutations; ++i) {
    for (std::size_t f = 0; f < names.size(); ++f) writeFile(path(names[f]), pristine[f]);
    for (const auto* torn : {"ckpt-3.walks.torn", "ckpt-5.walks.torn"}) fs::remove(path(torn));
    const int kind = static_cast<int>(rng_() % 6);
    const std::size_t target = 3 + rng_() % 3;  // an epoch-5 file
    const std::string ext = fs::path(names[target]).extension().string();
    Bytes b = pristine[target];
    if (!commonMutation(rng_, kind, b)) {
      if (kind == 5) {  // stale binding: the same file from epoch 3
        b = pristine[target - 3];
      } else if (ext == ".meta") {
        put(b, offsetof(CheckpointHeader, numVertices), hostileLength(rng_, kN));
        if (kind == 4)
          put(b, offsetof(CheckpointHeader, payloadBytes),
              get<std::uint64_t>(b, offsetof(CheckpointHeader, numVertices)) * sizeof(double));
      } else if (ext == ".csr") {
        const std::size_t at = kind == 3 ? offsetof(CsrFileHeader, numVertices)
                                         : offsetof(CsrFileHeader, numEdges);
        put(b, at, hostileLength(rng_, get<std::uint64_t>(b, at)));
      } else if (kind == 3) {  // sidecar header counts
        static constexpr std::size_t kLengths[] = {
            offsetof(WalkSidecarHeader, numVertices), offsetof(WalkSidecarHeader, numWalks),
            offsetof(WalkSidecarHeader, segmentBytes), offsetof(WalkSidecarHeader, indexBytes)};
        const std::size_t at = kLengths[rng_() % std::size(kLengths)];
        put(b, at, hostileLength(rng_, get<std::uint64_t>(b, at)));
      } else {  // sidecar lengths that keep the payload checksum valid
        const std::size_t index = walkHead + segmentBytes;
        const std::size_t deltaCount = index + 8 + (kN + 1) * 8 +
                                       get<std::uint64_t>(b, index) * sizeof(std::uint32_t);
        switch (rng_() % 3) {
          case 0: {  // segmentBytes + indexBytes wraps onto the real size
            const std::uint64_t seg = hostileLength(rng_, segmentBytes);
            put(b, offsetof(WalkSidecarHeader, segmentBytes), seg);
            put(b, offsetof(WalkSidecarHeader, indexBytes), walksBytes - seg);
            break;
          }
          case 1:
            put(b, index, hostileLength(rng_, get<std::uint64_t>(b, index)));
            break;
          default:
            put(b, deltaCount, hostileLength(rng_, get<std::uint64_t>(b, deltaCount)));
        }
        put(b, offsetof(WalkSidecarHeader, checksum), payloadChecksum(b, walkHead));
      }
    }
    writeFile(path(names[target]), b);

    const std::string what = label(i, kind) + " on " + names[target];
    std::vector<std::string> warnings;
    std::optional<CheckpointData> loaded;
    try {
      loaded = loadNewestCheckpoint(dir_.string(), kN,
                                    [&](const std::string& w) { warnings.push_back(w); });
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": checkpoint recovery threw: " << e.what();
      continue;
    }
    // Every rejection's reason — the text inside "invalid (...)" — names
    // the rejected file.
    for (const auto& w : warnings) {
      const auto open = w.find("invalid (");
      const auto close = w.rfind(')');
      ASSERT_NE(open, std::string::npos) << what << ": " << w;
      EXPECT_NE(w.substr(open, close - open).find(dir_.string()), std::string::npos)
          << what << ": " << w;
    }
    if (!loaded || loaded->epoch != 5) {
      EXPECT_FALSE(warnings.empty()) << what;
    }
    if (!loaded) continue;
    EXPECT_EQ(loaded->ranks.size(), kN) << what;
    EXPECT_EQ(loaded->graph.numVertices(), kN) << what;
    EXPECT_NO_THROW(loaded->graph.validate()) << what;
    EXPECT_LE(loaded->graph.numEdges(),
              fs::file_size(path("ckpt-" + std::to_string(loaded->epoch) + ".csr")) /
                  sizeof(VertexId))
        << what;
    if (loaded->walkSidecarQuarantined) {
      EXPECT_EQ(loaded->walkStore, nullptr) << what;
      EXPECT_FALSE(warnings.empty()) << what;
    }
    if (loaded->walkStore != nullptr) {
      EXPECT_EQ(loaded->walkStore->n, std::size_t{kN}) << what;
    }
  }
}

}  // namespace
}  // namespace lfpr
