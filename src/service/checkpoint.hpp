// Service checkpoints (the PR 7 tentpole's second leg; walk sidecar
// added by PR 10).
//
// Every K converged solves the service persists its state as an
// epoch-named file set in the durability directory:
//
//   ckpt-<epoch>.csr    the graph at that epoch (csr_file format — the
//                       PR 4 snapshot machinery, checksummed + mmap-read)
//   ckpt-<epoch>.walks  OPTIONAL (StepEngine::MonteCarlo only): the walk
//                       store — 120-byte checksummed header (seed, R,
//                       max length, walk-store epoch, walk-id width) +
//                       the walk segments and visit-index blobs
//                       (detail::WalkStoreImage). The header records the
//                       meta's rank checksum and the csr checksum, so a
//                       sidecar binds to exactly one (.csr, .meta) pair.
//   ckpt-<epoch>.meta   96-byte checksummed sidecar + the rank vector:
//                       published epoch, journal seq the graph covers,
//                       the §4.5 certificate, counters, the paired csr
//                       file's checksum, and a flag recording whether a
//                       walk sidecar belongs to this checkpoint
//
// The set is written csr → walks → meta, each tmp-then-rename, so the
// meta's existence implies every file it names is complete. A checkpoint
// is valid only when the halves verify AND the meta's recorded csr
// checksum matches the csr file actually present — a crash anywhere
// mid-write leaves either the previous complete set or orphan halves,
// never a plausible-but-mixed state. The walk sidecar is weaker by
// design: a sidecar that fails any check is quarantined to
// `ckpt-<epoch>.walks.torn` and the pair still loads (recovery rebuilds
// the store from the journal instead of resuming) — approximate resume
// state must never block exact rank recovery. Old sets are pruned only
// after a new set lands (as atomic triples — see pruneCheckpoints);
// recovery takes the newest valid set and skips (with a warning)
// anything torn. Framing (durable writes, header checks, bounded payload
// slicing, FileFormatError) is util/framed_file.hpp's.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "pagerank/detail/monte_carlo.hpp"

namespace lfpr {

inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr char kCheckpointMagic[8] = {'L', 'F', 'P', 'R',
                                             'C', 'K', 'P', '\n'};

/// CheckpointHeader::flags bit: a ckpt-<epoch>.walks sidecar was written
/// as part of this checkpoint (pre-PR 10 checkpoints have flags == 0 and
/// load unchanged).
inline constexpr std::uint32_t kCheckpointFlagWalkSidecar = 1u << 0;

inline constexpr std::uint32_t kWalkSidecarVersion = 1;
inline constexpr char kWalkSidecarMagic[8] = {'L', 'F', 'P', 'R',
                                              'W', 'L', 'K', '\n'};

struct WalkSidecarHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t headerBytes;
  std::uint64_t epoch;    ///< service epoch; must equal the file name's
  std::uint64_t mcEpoch;  ///< walk-store epoch (batches repaired so far)
  std::uint64_t seed;
  std::uint32_t walksPerVertex;
  std::uint32_t maxWalkLength;
  std::uint32_t walkIdBits;  ///< 32 today (the walk-id ceiling)
  std::uint32_t reserved;
  double alpha;
  std::uint64_t numVertices;
  std::uint64_t numWalks;
  std::uint64_t segmentBytes;
  std::uint64_t indexBytes;
  std::uint64_t metaChecksum;  ///< CheckpointHeader::checksum of the pair
  std::uint64_t csrChecksum;   ///< CheckpointHeader::csrChecksum of the pair
  std::uint64_t checksum;      ///< checksum64 over segments + visit index
};
static_assert(sizeof(WalkSidecarHeader) == 120,
              "header layout is part of the format");

struct CheckpointHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t headerBytes;
  std::uint64_t epoch;
  std::uint64_t journalSeq;
  std::uint64_t numVertices;
  std::uint64_t batchesApplied;
  std::uint64_t edgesIngested;
  std::uint32_t iterations;
  std::uint32_t flags;  // reserved
  double toleranceBound;
  std::uint64_t csrChecksum;   // paired ckpt-<epoch>.csr payload checksum
  std::uint64_t payloadBytes;  // numVertices x sizeof(double)
  std::uint64_t checksum;      // checksum64 over the rank payload
};
static_assert(sizeof(CheckpointHeader) == 96,
              "header layout is part of the format");

/// Everything recovery needs to resume as if the crash never happened:
/// the graph, the warm ranks, where the journal replay starts — and,
/// when a valid walk sidecar rode along, the resident walk store.
struct CheckpointData {
  std::uint64_t epoch = 0;
  std::uint64_t journalSeq = 0;
  std::uint64_t batchesApplied = 0;
  std::uint64_t edgesIngested = 0;
  int iterations = 0;
  double toleranceBound = 0.0;
  std::vector<double> ranks;
  CsrGraph graph;

  /// Write side: set to persist the walk store as a ckpt-<epoch>.walks
  /// sidecar next to the pair. Ignored by the loader.
  std::optional<detail::WalkStoreImage> walks;

  /// Load side: the deserialized (fully validated) walk store when the
  /// meta announced a sidecar and it verified end to end; null otherwise.
  std::unique_ptr<detail::MonteCarloState> walkStore;

  /// Load side: the meta announced a sidecar but it failed verification
  /// and was quarantined to ckpt-<epoch>.walks.torn (recovery must
  /// rebuild the store from the journal).
  bool walkSidecarQuarantined = false;
};

/// Write the file set for `data` (data.graph must be the epoch's CSR;
/// data.walks, when present, the epoch's walk store). Throws
/// io::IoError on failure; the caller decides whether
/// that degrades the service or just skips the cadence tick.
void writeCheckpoint(const std::string& dir, const CheckpointData& data);

/// Scan `dir` for the newest pair that fully verifies. Invalid or
/// half-written pairs are skipped with a warning, never deleted — a
/// newer-but-torn pair must not shadow an older good one. A valid pair
/// whose walk sidecar fails verification quarantines the sidecar (see
/// CheckpointData::walkSidecarQuarantined) and still loads. `numThreads`
/// is the budget for the parallel sidecar deserialize — pass the
/// solver's thread count so resume scales with the cores a rebuild
/// would use.
std::optional<CheckpointData> loadNewestCheckpoint(
    const std::string& dir, VertexId numVertices,
    const std::function<void(const std::string&)>& onWarning,
    int numThreads = 1);

/// Delete every checkpoint file set except `keepEpoch`'s (called after a
/// new set lands). Treats the set as an atomic triple: the kept epoch's
/// .csr/.meta/.walks all survive together, and other epochs' sidecars
/// are removed with their pairs so orphans never accumulate. Quarantined
/// *.walks.torn files are preserved for forensics (like journal torn
/// tails).
void pruneCheckpoints(const std::string& dir, std::uint64_t keepEpoch);

/// Delete stray "*.tmp.<pid>" scratch files a crashed writer left in
/// `dir` (single-writer directories only — the service's contract).
void sweepStaleTmpFiles(const std::string& dir);

}  // namespace lfpr
