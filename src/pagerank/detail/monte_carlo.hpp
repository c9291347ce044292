// Incremental Monte Carlo PageRank walk store (Bahmani et al., "Fast
// Incremental and Personalized PageRank", PAPERS.md).
//
// The engine maintains R random-walk segments rooted at every vertex.
// Each walk starts at its root and, at every step, continues to a
// uniform out-neighbour with probability alpha and stops otherwise —
// so walk lengths are geometric with mean 1 / (1 - alpha). Counting
// visits over all walks gives global ranks,
//
//     rank(v) ~= (1 - alpha) * visits(v) / (n * R),
//
// and counting only the walks rooted at r gives personalized scores
// (ppr.hpp). The store is indexed two ways:
//
//   * by root — walk w of root r is walk id r*R + w, its vertices in a
//     fixed-stride slice of `verts` (lengths in `len`);
//   * by visited vertex — a CSR-shaped visit index (`indexOffsets` /
//     `indexWalks`) mapping each vertex to the walk ids that step on
//     it, plus per-vertex delta chains for entries added by repairs
//     between (deterministically triggered) compactions.
//
// Batch ingest is the Bahmani update rule, driven by the repo's DF
// batch-mark machinery: an edge update (u, v) can only
// change the distribution of a walk *after* a visit to u (walks pick
// uniform out-neighbours, so only u's out-distribution changed), so
// the affected walks are exactly the visit-index entries of the batch
// edges' source vertices. Each such walk is claimed lock-free (one
// fetchOr per walk id — claimed exactly once no matter how many
// changed vertices it visits), logged on the claiming thread's claim
// list, and repaired off those lists: truncate at its first affected
// visit, then re-walk from there on the new snapshot. The claim flags
// are the exactly-once record any surviving thread can finish (the
// checked flags of the paper's Algorithm 2), so the lists need no
// second copy on a scheduler. Expected work per edge update is O(1)
// walks (each vertex is visited R * pi(v) * n / (1-alpha)... in
// expectation a constant number of stored walk positions per root-R
// budget), which is what makes the engine the sub-1e-5 batch-fraction
// specialist (bench_fig7, BM_SmallBatchWalkRepair).
//
// Determinism: every step of every walk draws from a counter-based
// stream keyed by (seed, walkId, epoch) — SplitMix64 evaluated at
// explicit counters, no shared RNG state — and visit counts are ±1.0
// fetch-adds on exact small integers, so the walk store and the ranks
// are bit-identical for the same (seed, batch schedule) regardless of
// thread interleaving, across runs and across service restarts
// (fingerprint() pins this in tests).
//
// The estimates are STATISTICAL: result.toleranceBound carries
// mcL1ErrorBound (error.hpp) — an expected-error scale with a safety
// factor — never the worst-case §4.5 certificate of the exact engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/ppr.hpp"
#include "util/default_init.hpp"
#include "util/rng.hpp"

namespace lfpr::detail {

/// One SplitMix64 draw at an explicit state value — the mixing function
/// of the counter-based walk RNG.
inline std::uint64_t mcMix(std::uint64_t x) noexcept {
  SplitMix64 sm(x);
  return sm();
}

/// Base of the per-(walk, epoch) draw stream. Distinct walks map to
/// distinct inner mixes (x -> mix(x + c*gamma) is injective per c), and
/// the epoch offsets the outer stream, so streams never collide in
/// practice and every draw is reproducible from (seed, walk, epoch)
/// alone.
inline std::uint64_t mcStreamBase(std::uint64_t seed, std::uint32_t walk,
                                  std::uint64_t epoch) noexcept {
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return mcMix(mcMix(seed + (static_cast<std::uint64_t>(walk) + 1) * kGamma) +
               (epoch + 1) * kGamma);
}

/// Draw `counter` of a stream: position i of a walk uses counters 2i
/// (continue/stop coin) and 2i+1 (neighbour pick), so a repair that
/// regenerates from position p replays exactly the draws a fresh walk
/// of the same epoch would make from p.
inline std::uint64_t mcDraw(std::uint64_t base, std::uint64_t counter) noexcept {
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return mcMix(base + counter * kGamma);
}

/// Shape of a walk store. A store whose config differs from the options
/// of the incoming step is discarded and rebuilt.
struct McConfig {
  int walksPerVertex = 16;
  int maxWalkLength = 32;
  std::uint64_t seed = 0;
  double alpha = 0.85;

  friend bool operator==(const McConfig&, const McConfig&) = default;
};

/// The walk store. Owned by LfEngineState (like the delta-push residual
/// array), valid only while `monteCarloValid` — any exact-engine step
/// moves ranks without maintaining walks, so the next MC step rebuilds.
struct MonteCarloState {
  MonteCarloState(std::size_t numVertices, const McConfig& config);

  McConfig cfg;
  std::size_t n = 0;
  /// Storage stride == cfg.maxWalkLength; also the hard walk-length cap.
  std::size_t stride = 0;
  /// n * R. Walk ids are 32-bit (the u32 visit index and claim lists
  /// store them); the constructor rejects n * R beyond that — same
  /// 32-bit ceiling the snapshot loaders enforce (see ROADMAP's 64-bit
  /// item).
  std::uint32_t numWalks = 0;
  /// Batches repaired into the store so far; names the RNG streams.
  std::uint64_t epoch = 0;

  /// Walk w occupies verts[w*stride .. w*stride + len[w]); len >= 1
  /// always (position 0 is the root). 0 is the transient "not yet
  /// generated" marker inside a build. Default-init storage: every live
  /// position is written by build/repair/deserialize before any reader
  /// sees it, and the dead stride padding is never read, so the
  /// constructor skips zeroing what is by far its largest allocation.
  std::vector<VertexId, DefaultInitAllocator<VertexId>> verts;
  std::vector<std::uint16_t> len;

  /// visits[v]: total stored walk positions at v. ±1.0 fetch-adds on
  /// exact integer doubles — order-independent, hence deterministic.
  AtomicF64Vector visits;

  /// Visit index, base CSR part: walk ids visiting v at
  /// indexWalks[indexOffsets[v] .. indexOffsets[v+1]) as of the last
  /// compaction. Duplicates allowed (multiple visits); entries may be
  /// stale after a repair moved the walk away — stale claims are
  /// detected (no affected position on the walk) and skipped.
  std::vector<std::uint64_t> indexOffsets;
  std::vector<std::uint32_t> indexWalks;

  /// Visit index, delta part: per-vertex chains of entries appended by
  /// repairs since the last compaction. deltaHead[v] -> index into
  /// deltaWalk/deltaNext, kNoDelta terminates. Compaction (rebuilding
  /// the base CSR from walk contents and clearing the chains) triggers
  /// on a deterministic size threshold, so store layout stays a pure
  /// function of the batch schedule.
  static constexpr std::uint32_t kNoDelta = 0xffffffffu;
  std::vector<std::uint32_t> deltaHead;
  std::vector<std::uint32_t> deltaWalk;
  std::vector<std::uint32_t> deltaNext;

  /// Per-walk repair claim flags, all-zero between steps. 0 = unclaimed,
  /// 1 = claimed (on a claim list), 2 = repaired — the sequential
  /// post-pass re-walks any claim still at 1 (a crashed worker's), so
  /// each claimed walk is repaired exactly once even under fault
  /// injection.
  AtomicU8Vector claimed;

  [[nodiscard]] std::uint32_t walksPerRoot() const noexcept {
    return static_cast<std::uint32_t>(cfg.walksPerVertex);
  }
  [[nodiscard]] VertexId rootOf(std::uint32_t walk) const noexcept {
    return static_cast<VertexId>(walk / walksPerRoot());
  }

  /// FNV-1a over config, epoch, and the live walk contents — the
  /// determinism contract: equal fingerprints <=> bit-identical stores.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Flatten the walk store into the immutable root-major PprIndex served
/// through SnapshotBox. Called at publish time; walks are root-major
/// contiguous (rootOf == walk / R), so the counting sort partitions by
/// root ranges and the output is bit-identical at any thread count.
[[nodiscard]] PprIndex buildPprIndex(const MonteCarloState& st,
                                     int numThreads = 1);

/// Passive serialized image of a walk store — the payload the checkpoint
/// walk sidecar persists (service/checkpoint.cpp owns the file format;
/// this layer owns the byte layout of the two blobs).
///
///   segments    len[] (u16 x numWalks) followed by the live positions of
///               every walk in walk-id order (u32 x sum(len)) — exactly
///               the bytes fingerprint() covers, no dead stride padding.
///   visitIndex  the base CSR (count, offsets, walk ids) plus the delta
///               chains verbatim. Persisting the index as-is rather than
///               recompacting keeps a resumed store byte-identical to the
///               store that was checkpointed — the next compaction fires
///               on the same deterministic threshold either way.
///
/// `visits` is deliberately absent: the counts are exact small integers
/// recounted from the segments on deserialize, so they cannot disagree
/// with the walks they summarize.
struct WalkStoreImage {
  McConfig cfg;
  std::uint64_t numVertices = 0;
  std::uint64_t numWalks = 0;
  /// Walk-store epoch (batches repaired so far) — names the RNG streams
  /// the resumed store continues from.
  std::uint64_t epoch = 0;
  std::vector<std::byte> segments;
  std::vector<std::byte> visitIndex;
};

/// Non-owning view of a serialized store — what the checkpoint loader
/// hands straight off its mmap so a multi-megabyte sidecar is copied
/// exactly once (blob -> resident state), never staged through owning
/// vectors first.
struct WalkStoreImageView {
  McConfig cfg;
  std::uint64_t numVertices = 0;
  std::uint64_t numWalks = 0;
  std::uint64_t epoch = 0;
  std::span<const std::byte> segments;
  std::span<const std::byte> visitIndex;
};

/// Snapshot a (quiescent) store into its serialized image. Called by the
/// checkpoint writer on the ingest thread between steps — claims are
/// all-zero, so they are not part of the image.
[[nodiscard]] WalkStoreImage mcSerializeStore(const MonteCarloState& st);

/// Rebuild a resident store from an image, validating every structural
/// invariant (walk lengths in [1, maxWalkLength], vertex ids < n, index
/// offsets monotonic and consistent with the blob sizes, delta chains
/// in-bounds) — throws std::runtime_error / std::invalid_argument on the
/// first violation, so a checkpoint loader can treat "deserializes
/// cleanly" as "safe to resume repairs on". Visit counts are recounted
/// from the segments; claim flags start fresh.
/// The segment pass (copy + validate + recount) parallelizes over walk
/// ranges — pass the solver's thread budget so restart resume scales
/// with the same cores a from-scratch rebuild would use.
[[nodiscard]] std::unique_ptr<MonteCarloState> mcDeserializeStore(
    const WalkStoreImageView& img, int numThreads = 1);

/// Owning-image convenience overload (tests and in-process round trips).
[[nodiscard]] inline std::unique_ptr<MonteCarloState> mcDeserializeStore(
    const WalkStoreImage& img, int numThreads = 1) {
  return mcDeserializeStore(
      WalkStoreImageView{img.cfg, img.numVertices, img.numWalks, img.epoch,
                         img.segments, img.visitIndex},
      numThreads);
}

}  // namespace lfpr::detail
