// Incremental Monte Carlo walk-store engine — see monte_carlo.hpp for
// the protocol overview. Shape of a step:
//
//   build   (store invalid) every walk generated on `prev` in parallel
//           (dynamic chunks of walk ids), visit counts fetch-added,
//           then a sequential visit-index rebuild + full rank sweep.
//   repair  (non-empty batch) phase A marks batch-edge sources via the
//           DF `affected` fetchOr and claims their visiting walks
//           (claimed fetchOr 0->1, appended to the claimer's log);
//           phase B workers take chunks of the concatenated claim list
//           and repair each walk exactly once; a sequential pass
//           re-walks any claim a crashed worker left behind, then
//           merges per-thread logs (delta index entries, rank refresh
//           over touched vertices) and clears the marks it set.
//
// Fault-injection protocol: the crash poll sits at *walk* boundaries
// only, and a walk's effects (visit decrements, vertex rewrite, visit
// increments) run between polls — so a simulated crash can abandon
// claimed walks but never leave a half-repaired one, and the sequential
// completion pass finds every abandoned claim still at 1. The marking
// half runs sequentially when a FaultInjector is armed: a crash inside
// the parallel mark-winner gate could otherwise strand unclaimed walks
// behind an already-set affected bit.
//
// Determinism: all draws are counter-based (mcStreamBase / mcDraw), all
// visit-count updates are ±1.0 fetch-adds on exact integers, claims are
// idempotent, and index compaction triggers on a deterministic size
// threshold — so thread interleaving can change nothing but the order
// delta-chain entries are appended in, which only permutes *claim*
// order within a step, never which walks are repaired or what they
// become. fingerprint() covers config + epoch + live walk contents.

#include "pagerank/detail/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/error.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/thread_team.hpp"
#include "util/framed_file.hpp"
#include "util/timer.hpp"

namespace lfpr::detail {

namespace {

/// Walk-id chunk for the parallel build.
constexpr std::size_t kWalkChunkSize = 256;
/// Claim-list chunk for the parallel repair: a repair re-walks only a
/// suffix and repair sets are small, so chunks are finer than the
/// build's to spread them across the team.
constexpr std::size_t kRepairChunkSize = 64;

/// Continue/stop coin: continue while the 53-bit uniform is below alpha.
bool mcContinues(std::uint64_t draw, double alpha) noexcept {
  return (static_cast<double>(draw >> 11) * 0x1.0p-53) < alpha;
}

/// Unbiased-enough uniform pick in [0, deg) via the 128-bit multiply
/// reduction (bias < deg / 2^64 — unobservable at graph degrees).
std::size_t mcPick(std::uint64_t draw, std::size_t deg) noexcept {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(draw) * deg) >> 64);
}

/// Regenerate walk `w` from position `from` (verts[from] must already
/// hold the vertex the walk re-enters the graph at) using the epoch
/// stream `base` and `g`'s out-adjacency. Writes verts only; the caller
/// owns visit accounting. Returns the new length.
std::uint16_t mcGenerate(MonteCarloState& st, const CsrGraph& g,
                         std::uint32_t w, std::size_t from,
                         std::uint64_t base) noexcept {
  VertexId* slice = st.verts.data() + static_cast<std::size_t>(w) * st.stride;
  std::size_t p = from;
  VertexId u = slice[p];
  while (p + 1 < st.stride) {
    if (!mcContinues(mcDraw(base, 2 * p), st.cfg.alpha)) break;
    const std::size_t deg = g.outDegree(u);
    if (deg == 0) break;  // dead end: the walk stops here
    u = g.out(u)[mcPick(mcDraw(base, 2 * p + 1), deg)];
    slice[++p] = u;
  }
  return static_cast<std::uint16_t>(p + 1);
}

/// Per-thread repair log, merged sequentially after the join.
struct McLog {
  std::vector<VertexId> changed;        ///< affected bits this thread won
  std::vector<std::uint32_t> claims;    ///< walks this thread claimed
  std::vector<VertexId> touched;        ///< vertices whose visits moved
  /// New (vertex, walk) visit-index entries from repairs.
  std::vector<std::pair<VertexId, std::uint32_t>> newEntries;
  std::uint64_t repaired = 0;
};

/// Claim every walk the visit index lists for `u` (base CSR + delta
/// chain). fetchOr makes the claim idempotent: a walk visiting several
/// changed vertices is claimed and logged exactly once.
void mcClaimWalksAt(MonteCarloState& st, VertexId u, McLog& log) {
  const auto tryClaim = [&](std::uint32_t w) {
    if (st.claimed.fetchOr(w, 1) == 0) log.claims.push_back(w);
  };
  for (std::uint64_t i = st.indexOffsets[u]; i < st.indexOffsets[u + 1]; ++i)
    tryClaim(st.indexWalks[i]);
  for (std::uint32_t e = st.deltaHead[u]; e != MonteCarloState::kNoDelta;
       e = st.deltaNext[e])
    tryClaim(st.deltaWalk[e]);
}

/// Repair one claimed walk against `curr` at `epoch`: truncate at its
/// first affected visit and re-walk from there. A claim with no
/// affected position is stale index residue (an earlier repair already
/// moved the walk off the changed vertex) — skipped, nothing changes.
/// Only positions *after* the affected one are re-drawn: the walk's
/// prefix through the affected vertex is still distributed correctly
/// (the out-distribution of the changed vertex governs the step it
/// takes LEAVING the visit, which is exactly where regeneration picks
/// up).
void mcRepairWalk(MonteCarloState& st, const CsrGraph& curr,
                  const AtomicU8Vector& affected, std::uint32_t w,
                  std::uint64_t epoch, McLog& log) {
  const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
  const std::size_t oldLen = st.len[w];
  std::size_t p = st.stride;
  for (std::size_t i = 0; i < oldLen; ++i) {
    if (affected.load(st.verts[slice + i]) != 0) {
      p = i;
      break;
    }
  }
  if (p == st.stride) return;  // stale claim

  for (std::size_t i = p + 1; i < oldLen; ++i) {
    st.visits.fetchAdd(st.verts[slice + i], -1.0);
    log.touched.push_back(st.verts[slice + i]);
  }
  const std::uint16_t newLen =
      mcGenerate(st, curr, w, p, mcStreamBase(st.cfg.seed, w, epoch));
  st.len[w] = newLen;
  for (std::size_t i = p + 1; i < newLen; ++i) {
    const VertexId v = st.verts[slice + i];
    st.visits.fetchAdd(v, 1.0);
    log.touched.push_back(v);
    log.newEntries.emplace_back(v, w);
  }
  ++log.repaired;
}

/// Rebuild the base visit index from walk contents (counting sort over
/// live positions) and clear the delta chains. Deterministic: depends
/// only on the store.
void mcCompactIndex(MonteCarloState& st) {
  st.indexOffsets.assign(st.n + 1, 0);
  for (std::uint32_t w = 0; w < st.numWalks; ++w) {
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    for (std::size_t i = 0; i < st.len[w]; ++i)
      ++st.indexOffsets[st.verts[slice + i] + 1];
  }
  for (std::size_t v = 0; v < st.n; ++v)
    st.indexOffsets[v + 1] += st.indexOffsets[v];
  st.indexWalks.resize(st.indexOffsets[st.n]);
  std::vector<std::uint64_t> cursor(st.indexOffsets.begin(),
                                    st.indexOffsets.end() - 1);
  for (std::uint32_t w = 0; w < st.numWalks; ++w) {
    const std::size_t slice = static_cast<std::size_t>(w) * st.stride;
    for (std::size_t i = 0; i < st.len[w]; ++i)
      st.indexWalks[cursor[st.verts[slice + i]]++] = w;
  }
  st.deltaHead.assign(st.n, MonteCarloState::kNoDelta);
  st.deltaWalk.clear();
  st.deltaNext.clear();
}

double mcRankScale(const MonteCarloState& st) noexcept {
  return (1.0 - st.cfg.alpha) / static_cast<double>(st.numWalks);
}

/// Build every walk on `g` (epoch stream 0). Parallel over walk-id
/// chunks with crash polls at walk boundaries; a sequential pass
/// regenerates anything a crashed worker left unbuilt (len == 0), so
/// the store is complete even if every thread "dies". Returns false
/// only on a cooperative stop — the store is then left invalid.
bool mcBuildWalks(MonteCarloState& st, LfEngineState& state, const CsrGraph& g,
                  const PageRankOptions& opt, ThreadTeam& team,
                  FaultInjector* fault) {
  std::fill(st.len.begin(), st.len.end(), std::uint16_t{0});
  st.visits.fill(0.0);
  st.claimed.fill(0);
  state.affected.fill(0);
  st.epoch = 0;

  const auto buildOne = [&](std::uint32_t w) {
    VertexId* slice = st.verts.data() + static_cast<std::size_t>(w) * st.stride;
    slice[0] = st.rootOf(w);
    const std::uint16_t len =
        mcGenerate(st, g, w, 0, mcStreamBase(st.cfg.seed, w, 0));
    for (std::size_t i = 0; i < len; ++i) st.visits.fetchAdd(slice[i], 1.0);
    st.len[w] = len;  // written last: len != 0 <=> walk fully accounted
  };

  ChunkCursor cursor(st.numWalks, kWalkChunkSize);
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (cursor.next(begin, end)) {
      for (std::size_t w = begin; w < end; ++w) {
        if (stopSeen(opt)) return;
        if (fault != nullptr && !fault->onVertexProcessed(tid)) return;
        buildOne(static_cast<std::uint32_t>(w));
      }
    }
  });
  if (stopSeen(opt)) return false;
  for (std::uint32_t w = 0; w < st.numWalks; ++w)
    if (st.len[w] == 0) buildOne(w);

  mcCompactIndex(st);
  const double scale = mcRankScale(st);
  for (std::size_t v = 0; v < st.n; ++v)
    state.ranks.store(v, scale * st.visits.load(v));
  return true;
}

/// Repair the store from `prev`-consistent to `curr`-consistent for one
/// batch (epoch `st.epoch + 1`). Returns false on cooperative stop.
bool mcRepairBatch(MonteCarloState& st, LfEngineState& state,
                   const CsrGraph& curr, const std::vector<Edge>& edges,
                   const PageRankOptions& opt, ThreadTeam& team,
                   FaultInjector* fault, PageRankResult& result) {
  const std::uint64_t epoch = st.epoch + 1;
  std::vector<McLog> logs(static_cast<std::size_t>(team.size()));

  // Phase A — mark batch-edge sources and claim their visiting walks.
  // Only the *source* side matters: a walk's distribution depends on the
  // out-adjacency of the vertices it visits, and an edge update (u, v)
  // changes only u's. Runs sequentially when fault injection is armed
  // (see the file comment).
  const auto markRange = [&](std::size_t begin, std::size_t end, McLog& log) {
    for (std::size_t i = begin; i < end; ++i) {
      const VertexId u = edges[i].src;
      if (state.affected.fetchOr(u, 1) == 0) {
        log.changed.push_back(u);
        mcClaimWalksAt(st, u, log);
      }
    }
  };
  if (fault != nullptr) {
    markRange(0, edges.size(), logs[0]);
  } else {
    ChunkCursor markCursor(edges.size(), kEdgeChunkSize);
    team.run([&](int tid) {
      McLog& log = logs[static_cast<std::size_t>(tid)];
      std::size_t begin = 0;
      std::size_t end = 0;
      while (markCursor.next(begin, end)) {
        if (stopSeen(opt)) return;
        markRange(begin, end, log);
      }
    });
    if (stopSeen(opt)) return false;
  }

  // The per-thread claim lists are the repair set: every walk in it is
  // at claimed == 1 and appears exactly once.
  std::vector<std::uint32_t> claims;
  for (const McLog& log : logs)
    claims.insert(claims.end(), log.claims.begin(), log.claims.end());

  // Phase B — repair claimed walks in chunks of the claim list; crash
  // polls only at walk boundaries, so every repair is all-or-nothing.
  ChunkCursor repairCursor(claims.size(), kRepairChunkSize);
  team.run([&](int tid) {
    if (fault != nullptr && fault->crashed(tid)) return;
    McLog& log = logs[static_cast<std::size_t>(tid)];
    std::size_t begin = 0;
    std::size_t end = 0;
    while (repairCursor.next(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        if (stopSeen(opt)) return;
        if (fault != nullptr && !fault->onVertexProcessed(tid)) return;
        mcRepairWalk(st, curr, state.affected, claims[i], epoch, log);
        st.claimed.store(claims[i], 2);
      }
    }
  });
  if (stopSeen(opt)) return false;

  // Sequential completion: any claim still at 1 was abandoned by a
  // crashed worker — repair it now, exactly once.
  for (const std::uint32_t w : claims)
    if (st.claimed.load(w) == 1) {
      mcRepairWalk(st, curr, state.affected, w, epoch, logs[0]);
      st.claimed.store(w, 2);
    }

  // Sequential merge: delta index entries, rank refresh (idempotent —
  // duplicate touches just re-store the same value), flag clears.
  const double scale = mcRankScale(st);
  std::uint64_t changedCount = 0;
  std::uint64_t repairedCount = 0;
  for (McLog& log : logs) {
    for (const auto& [v, w] : log.newEntries) {
      st.deltaWalk.push_back(w);
      st.deltaNext.push_back(st.deltaHead[v]);
      st.deltaHead[v] = static_cast<std::uint32_t>(st.deltaWalk.size() - 1);
    }
    for (const VertexId v : log.touched)
      state.ranks.store(v, scale * st.visits.load(v));
    for (const std::uint32_t w : log.claims) st.claimed.store(w, 0);
    for (const VertexId v : log.changed) state.affected.store(v, 0);
    changedCount += log.changed.size();
    repairedCount += log.repaired;
  }
  st.epoch = epoch;

  // Deterministic compaction: fold the delta chains back into the base
  // CSR once they grow past a fixed fraction of it.
  if (st.deltaWalk.size() > st.indexWalks.size() / 4 + 1024) mcCompactIndex(st);

  result.affectedVertices = changedCount;
  result.rankUpdates += repairedCount;
  return true;
}

}  // namespace

MonteCarloState::MonteCarloState(std::size_t numVertices, const McConfig& config)
    : cfg(config),
      n(numVertices),
      stride(static_cast<std::size_t>(config.maxWalkLength)),
      visits(numVertices, 0.0),
      claimed(0, 0) {
  if (cfg.walksPerVertex < 1)
    throw std::invalid_argument("MonteCarlo: mcWalksPerVertex must be >= 1");
  if (cfg.maxWalkLength < 1 || cfg.maxWalkLength > 65535)
    throw std::invalid_argument(
        "MonteCarlo: mcMaxWalkLength must be in [1, 65535]");
  const std::uint64_t walks =
      static_cast<std::uint64_t>(n) *
      static_cast<std::uint64_t>(cfg.walksPerVertex);
  if (walks > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        "MonteCarlo: walk count " + std::to_string(walks) +
        " exceeds the 32-bit walk id space (n * mcWalksPerVertex; see the "
        "ROADMAP 64-bit item)");
  numWalks = static_cast<std::uint32_t>(walks);
  verts.resize(static_cast<std::size_t>(numWalks) * stride);
  len.resize(numWalks, 0);
  indexOffsets.assign(n + 1, 0);
  deltaHead.assign(n, kNoDelta);
  claimed = AtomicU8Vector(numWalks, 0);
}

namespace {

/// FNV-1a over the store shape, the epoch and every walk in walk-id order
/// — the one hash behind MonteCarloState::fingerprint() and
/// PprIndex::fingerprint(). `walk(w)` returns walk w's positions; it is
/// called once per walk, in ascending w.
template <typename WalkAt>
std::uint64_t walkFingerprint(const McConfig& cfg, std::uint64_t epoch,
                              std::span<const std::uint16_t> len,
                              WalkAt&& walk) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  mix(static_cast<std::uint64_t>(cfg.walksPerVertex));
  mix(static_cast<std::uint64_t>(cfg.maxWalkLength));
  mix(cfg.seed);
  mix(static_cast<std::uint64_t>(cfg.alpha * 1e12));
  mix(epoch);
  mix(len.size());
  for (std::size_t w = 0; w < len.size(); ++w) {
    mix(len[w]);
    for (const VertexId v : walk(w)) mix(v);
  }
  return h;
}

}  // namespace

std::uint64_t MonteCarloState::fingerprint() const noexcept {
  return walkFingerprint(cfg, epoch, len, [this](std::size_t w) {
    return std::span<const VertexId>(verts.data() + w * stride, len[w]);
  });
}

namespace {

/// Append a POD value / array to a byte blob (host byte order — the
/// sidecar is read back on the machine that wrote it, like every other
/// on-disk format here).
template <typename T>
void blobPut(std::vector<std::byte>& blob, const T* data, std::size_t count) {
  const auto* p = reinterpret_cast<const std::byte*>(data);
  blob.insert(blob.end(), p, p + count * sizeof(T));
}

template <typename T>
void blobPutOne(std::vector<std::byte>& blob, T value) {
  blobPut(blob, &value, 1);
}

/// Team for a memory-bound pass over the store (deserialize, index
/// build). Such a pass has no latency to hide, so oversubscribing a small
/// host only adds spawn and cache churn — the requested budget is capped
/// at the cores actually present.
ThreadTeam storePassTeam(int numThreads) {
  int threads = ThreadTeam::resolveThreads(numThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) threads = std::min(threads, static_cast<int>(hw));
  return ThreadTeam(threads);
}

/// Split [0, count) into one contiguous range per team thread and run
/// body(tid, begin, end) on every non-empty one. The split depends only
/// on count and the team size, so per-range outputs land in the same
/// place on every run.
template <typename Body>
void forEachRange(ThreadTeam& team, std::size_t count, Body&& body) {
  const std::size_t nt = static_cast<std::size_t>(team.size());
  const std::size_t per = (count + nt - 1) / nt;
  team.run([&](int tid) {
    const std::size_t b = std::min(count, static_cast<std::size_t>(tid) * per);
    const std::size_t e = std::min(count, b + per);
    if (b < e) body(tid, b, e);
  });
}

}  // namespace

WalkStoreImage mcSerializeStore(const MonteCarloState& st) {
  WalkStoreImage img;
  img.cfg = st.cfg;
  img.numVertices = st.n;
  img.numWalks = st.numWalks;
  img.epoch = st.epoch;

  std::size_t live = 0;
  for (std::uint32_t w = 0; w < st.numWalks; ++w) live += st.len[w];
  img.segments.reserve(st.numWalks * sizeof(std::uint16_t) +
                       live * sizeof(VertexId));
  blobPut(img.segments, st.len.data(), st.numWalks);
  for (std::uint32_t w = 0; w < st.numWalks; ++w)
    blobPut(img.segments,
            st.verts.data() + static_cast<std::size_t>(w) * st.stride,
            st.len[w]);

  blobPutOne(img.visitIndex,
             static_cast<std::uint64_t>(st.indexWalks.size()));
  blobPut(img.visitIndex, st.indexOffsets.data(), st.n + 1);
  blobPut(img.visitIndex, st.indexWalks.data(), st.indexWalks.size());
  blobPutOne(img.visitIndex, static_cast<std::uint64_t>(st.deltaWalk.size()));
  blobPut(img.visitIndex, st.deltaHead.data(), st.n);
  blobPut(img.visitIndex, st.deltaWalk.data(), st.deltaWalk.size());
  blobPut(img.visitIndex, st.deltaNext.data(), st.deltaNext.size());
  return img;
}

std::unique_ptr<MonteCarloState> mcDeserializeStore(
    const WalkStoreImageView& img, int numThreads) {
  // Bound the walk count by the bytes present before the store is sized
  // from it: each walk stores a u16 length and at least its root.
  const auto perRoot = static_cast<std::uint64_t>(std::max(img.cfg.walksPerVertex, 0));
  if (img.numWalks > img.segments.size() / (sizeof(std::uint16_t) + sizeof(VertexId)) ||
      img.numWalks != img.numVertices * perRoot)
    throw std::runtime_error(
        "walk image: numWalks disagrees with n * walksPerVertex or the segment blob");
  // The constructor re-validates the config and the 32-bit walk-id
  // ceiling; anything it rejects, a tampered image cannot smuggle in.
  auto st = std::make_unique<MonteCarloState>(
      static_cast<std::size_t>(img.numVertices), img.cfg);
  st->epoch = img.epoch;

  // Serial prologue: the len array fixes every walk's byte range, so one
  // prefix sum turns the packed segment blob into random-access slices
  // and the copy/validate/recount pass parallelizes over walk ranges.
  BoundedReader seg(img.segments, "walk image segments");
  seg.readVector(st->len, st->numWalks, "len");
  std::vector<std::uint64_t> walkStart(st->numWalks + 1, 0);
  for (std::uint32_t w = 0; w < st->numWalks; ++w) {
    const std::size_t len = st->len[w];
    if (len < 1 || len > st->stride)
      throw std::runtime_error("walk image: walk length out of [1, stride]");
    walkStart[w + 1] = walkStart[w] + len;
  }
  // Byte-offset addressing: the packed vertex region need not be
  // VertexId-aligned inside an mmapped sidecar, so slices are memcpy'd.
  const std::byte* packed =
      seg.take<VertexId>(walkStart[st->numWalks], "verts").data();
  seg.expectEnd("verts");

  ThreadTeam team = storePassTeam(numThreads);
  std::vector<std::vector<std::uint32_t>> threadCounts(
      static_cast<std::size_t>(team.size()));
  forEachRange(team, st->numWalks, [&](int tid, std::size_t begin,
                                       std::size_t end) {
    auto& counts = threadCounts[static_cast<std::size_t>(tid)];
    counts.assign(st->n, 0);
    const VertexId n = static_cast<VertexId>(st->n);
    for (std::size_t w = begin; w < end; ++w) {
      const std::size_t len = st->len[w];
      VertexId* slice = st->verts.data() + w * st->stride;
      std::memcpy(slice, packed + walkStart[w] * sizeof(VertexId),
                  len * sizeof(VertexId));
      if (slice[0] != st->rootOf(static_cast<std::uint32_t>(w)))
        throw std::runtime_error(
            "walk image: walk does not start at its root");
      for (std::size_t i = 0; i < len; ++i) {
        const VertexId v = slice[i];
        if (v >= n)
          throw std::runtime_error("walk image: vertex id out of range");
        ++counts[v];
      }
    }
  });
  // Per-thread tallies are exact integers well under 2^53, so the summed
  // double is bit-identical to the repair path's repeated +1.0 adds.
  forEachRange(team, st->n, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::uint64_t total = 0;
      for (const auto& counts : threadCounts)
        if (!counts.empty()) total += counts[v];
      st->visits.store(v, static_cast<double>(total));
    }
  });

  BoundedReader idx(img.visitIndex, "walk image visit index");
  const auto indexCount = idx.readOne<std::uint64_t>("indexCount");
  idx.readVector(st->indexOffsets, st->n + 1, "indexOffsets");
  if (st->indexOffsets[0] != 0 || st->indexOffsets[st->n] != indexCount)
    throw std::runtime_error("walk image: index offsets inconsistent");
  // Bound scans over the index and delta arrays — multi-megabyte sweeps
  // that split across the same team (ThreadTeam::run rethrows the first
  // worker's exception, so a violation still surfaces serially).
  forEachRange(team, st->n, [&](int, std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v)
      if (st->indexOffsets[v] > st->indexOffsets[v + 1])
        throw std::runtime_error("walk image: index offsets not monotonic");
  });
  idx.readVector(st->indexWalks, indexCount, "indexWalks");
  forEachRange(team, st->indexWalks.size(),
               [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      if (st->indexWalks[i] >= st->numWalks)
        throw std::runtime_error("walk image: index walk id out of range");
  });
  const auto deltaCount = idx.readOne<std::uint64_t>("deltaCount");
  idx.readVector(st->deltaHead, st->n, "deltaHead");
  idx.readVector(st->deltaWalk, deltaCount, "deltaWalk");
  idx.readVector(st->deltaNext, deltaCount, "deltaNext");
  idx.expectEnd("deltaNext");
  const auto validDeltaRef = [&](std::uint32_t e) {
    return e == MonteCarloState::kNoDelta || e < deltaCount;
  };
  forEachRange(team, st->n, [&](int, std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v)
      if (!validDeltaRef(st->deltaHead[v]))
        throw std::runtime_error("walk image: delta head out of range");
  });
  forEachRange(team, st->deltaWalk.size(),
               [&](int, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (st->deltaWalk[i] >= st->numWalks)
        throw std::runtime_error("walk image: delta walk id out of range");
      if (!validDeltaRef(st->deltaNext[i]))
        throw std::runtime_error("walk image: delta next out of range");
    }
  });
  return st;
}

PprIndex buildPprIndex(const MonteCarloState& st, int numThreads) {
  PprIndex index;
  index.alpha = st.cfg.alpha;
  index.walksPerVertex = st.cfg.walksPerVertex;
  index.maxWalkLength = st.cfg.maxWalkLength;
  index.seed = st.cfg.seed;
  index.epoch = st.epoch;
  index.walkLengths = st.len;
  index.offsets.assign(st.n + 1, 0);

  ThreadTeam team = storePassTeam(numThreads);
  const std::uint32_t perRoot = st.walksPerRoot();
  forEachRange(team, st.n, [&](int, std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      std::uint64_t total = 0;
      const std::size_t wBegin = r * perRoot;
      for (std::size_t w = wBegin; w < wBegin + perRoot; ++w)
        total += st.len[w];
      index.offsets[r + 1] = total;
    }
  });
  for (std::size_t r = 0; r < st.n; ++r)
    index.offsets[r + 1] += index.offsets[r];
  index.visitLog.resize(index.offsets[st.n]);
  forEachRange(team, st.n, [&](int, std::size_t b, std::size_t e) {
    std::uint64_t cursor = index.offsets[b];
    for (std::size_t r = b; r < e; ++r) {
      const std::size_t wBegin = r * perRoot;
      for (std::size_t w = wBegin; w < wBegin + perRoot; ++w) {
        const std::size_t slice = w * st.stride;
        for (std::size_t i = 0; i < st.len[w]; ++i)
          index.visitLog[cursor++] = st.verts[slice + i];
      }
    }
  });
  return index;
}

PageRankResult lfMonteCarloStep(LfEngineState& state, const CsrGraph& prev,
                                const CsrGraph& curr, const BatchUpdate& batch,
                                const PageRankOptions& opt, FaultInjector* fault,
                                const char* name) {
  checkStepInputs(prev, curr, batch, state.size(), name);
  const std::size_t n = curr.numVertices();

  const McConfig cfg{opt.mcWalksPerVertex, opt.mcMaxWalkLength, opt.mcSeed,
                     opt.alpha};
  PageRankResult result;
  result.monteCarlo = true;
  if (n == 0) {
    result.converged = true;
    result.toleranceBound = mcL1ErrorBound(cfg.alpha, cfg.walksPerVertex);
    return result;
  }

  ThreadTeam team(opt.numThreads);
  PageRankOptions resolved = opt;
  resolved.numThreads = team.size();

  const bool rebuild = !state.monteCarloValid || state.monteCarlo == nullptr ||
                       !(state.monteCarlo->cfg == cfg) ||
                       state.monteCarlo->n != n;
  state.monteCarloValid = false;  // re-validated below on clean completion
  const Stopwatch timer;
  if (rebuild) {
    if (state.monteCarlo == nullptr || !(state.monteCarlo->cfg == cfg) ||
        state.monteCarlo->n != n)
      state.monteCarlo = std::make_unique<MonteCarloState>(n, cfg);
    if (!mcBuildWalks(*state.monteCarlo, state, prev, resolved, team, fault)) {
      result.timeMs = timer.elapsedMs();
      result.stopped = true;
      return result;
    }
    result.rankUpdates = state.monteCarlo->numWalks;
  }
  if (batch.size() != 0) {
    const std::vector<Edge> edges = concatBatch(batch);
    if (!mcRepairBatch(*state.monteCarlo, state, curr, edges, resolved, team,
                       fault, result)) {
      result.timeMs = timer.elapsedMs();
      result.stopped = true;
      return result;
    }
  }
  result.timeMs = timer.elapsedMs();
  result.iterations = 1;
  result.converged = true;
  result.toleranceBound = mcL1ErrorBound(cfg.alpha, cfg.walksPerVertex);
  state.monteCarloValid = true;
  return result;
}

}  // namespace lfpr::detail

namespace lfpr {

std::uint64_t PprIndex::fingerprint() const noexcept {
  // Walks sit back to back in the visit log (root-major walk ids), so a
  // running cursor finds each one.
  const detail::McConfig cfg{walksPerVertex, maxWalkLength, seed, alpha};
  std::uint64_t cursor = 0;
  return detail::walkFingerprint(cfg, epoch, walkLengths, [&](std::size_t w) {
    const std::span<const VertexId> walk(visitLog.data() + cursor, walkLengths[w]);
    cursor += walkLengths[w];
    return walk;
  });
}

}  // namespace lfpr
