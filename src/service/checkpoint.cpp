#include "service/checkpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string_view>

#include "graph/csr_file.hpp"
#include "util/checksum.hpp"
#include "util/failpoint.hpp"
#include "util/framed_file.hpp"
#include "util/mmap_file.hpp"

namespace lfpr {

namespace fs = std::filesystem;

namespace {

std::string csrPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/ckpt-" + std::to_string(epoch) + ".csr";
}

std::string metaPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/ckpt-" + std::to_string(epoch) + ".meta";
}

std::string walksPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/ckpt-" + std::to_string(epoch) + ".walks";
}

/// Parse "ckpt-<epoch><suffix>" -> epoch; nullopt for anything else.
std::optional<std::uint64_t> ckptEpoch(const std::string& name,
                                       std::string_view suffix) {
  constexpr std::string_view prefix = "ckpt-";
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(),
                   suffix) != 0)
    return std::nullopt;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::strtoull(digits.c_str(), nullptr, 10);
}

/// Parse "ckpt-<epoch>.meta" -> epoch; nullopt for anything else.
std::optional<std::uint64_t> metaEpoch(const fs::path& p) {
  return ckptEpoch(p.filename().string(), ".meta");
}

/// Epoch of ANY file of a checkpoint set (.csr / .meta / .walks) so the
/// pruner treats the set as one unit. Quarantined .walks.torn files are
/// deliberately NOT matched — they are preserved for forensics.
std::optional<std::uint64_t> ckptSetEpoch(const fs::path& p) {
  const std::string name = p.filename().string();
  for (const std::string_view suffix : {".meta", ".csr", ".walks"})
    if (const auto e = ckptEpoch(name, suffix)) return e;
  return std::nullopt;
}

/// Write the walk sidecar for `meta`'s checkpoint. Runs between the csr
/// rename and the meta rename: a crash here leaves at worst an orphan
/// sidecar (or its tmp) that the next checkpoint's prune / sweep removes
/// — the meta that would have announced it never landed.
void writeWalkSidecar(const std::string& path, const CheckpointHeader& meta,
                      const detail::WalkStoreImage& img) {
  auto h = initHeader<WalkSidecarHeader>(kWalkSidecarMagic, kWalkSidecarVersion);
  h.epoch = meta.epoch;
  h.mcEpoch = img.epoch;
  h.seed = img.cfg.seed;
  h.walksPerVertex = static_cast<std::uint32_t>(img.cfg.walksPerVertex);
  h.maxWalkLength = static_cast<std::uint32_t>(img.cfg.maxWalkLength);
  h.walkIdBits = 32;
  h.alpha = img.cfg.alpha;
  h.numVertices = img.numVertices;
  h.numWalks = img.numWalks;
  h.segmentBytes = img.segments.size();
  h.indexBytes = img.visitIndex.size();
  h.metaChecksum = meta.checksum;
  h.csrChecksum = meta.csrChecksum;
  Checksum64 sum;
  sum.update(img.segments);
  sum.update(img.visitIndex);
  h.checksum = sum.value();
  writeDurably(path,
               {"ckpt.walks.open", "ckpt.walks.fsync", "ckpt.walks.rename"},
               [&](io::FdFile& out) {
                 out.write(&h, sizeof(h), "ckpt.walks.write");
                 out.write(img.segments.data(), img.segments.size(), "ckpt.walks.write");
                 out.write(img.visitIndex.data(), img.visitIndex.size(),
                           "ckpt.walks.write");
               });
}

/// Verify and deserialize the walk sidecar of a checkpoint whose meta
/// header is `meta`. Throws FileFormatError on the first failed check —
/// the caller quarantines.
std::unique_ptr<detail::MonteCarloState> loadWalkSidecar(
    const std::string& path, const CheckpointHeader& meta, int numThreads) {
  const MmapFile map = MmapFile::open(path);
  const auto bytes = map.bytes();
  const auto h = readHeader<WalkSidecarHeader>(bytes, kWalkSidecarMagic,
                                               kWalkSidecarVersion, path);
  if (h.epoch != meta.epoch)
    throw FileFormatError(path, "epoch", "disagrees with the meta");
  if (h.metaChecksum != meta.checksum || h.csrChecksum != meta.csrChecksum)
    throw FileFormatError(path, "metaChecksum",
                          "sidecar does not bind to this .meta/.csr pair");
  if (h.walkIdBits != 32)
    throw FileFormatError(path, "walkIdBits",
                          "unsupported walk-id width " + std::to_string(h.walkIdBits));
  if (h.numVertices != meta.numVertices)
    throw FileFormatError(path, "numVertices", "disagrees with the meta");
  const auto payload = bytes.subspan(sizeof(h));
  BoundedReader r(payload, path);
  // A non-owning view straight off the mmap: the blobs are copied once,
  // into the resident store, never staged through owning vectors.
  detail::WalkStoreImageView img;
  img.segments = r.take<std::byte>(h.segmentBytes, "segmentBytes");
  img.visitIndex = r.take<std::byte>(h.indexBytes, "indexBytes");
  r.expectEnd("indexBytes");
  if (checksum64(payload) != h.checksum)
    throw FileFormatError(path, "checksum", "payload checksum mismatch");

  img.cfg.walksPerVertex = static_cast<int>(h.walksPerVertex);
  img.cfg.maxWalkLength = static_cast<int>(h.maxWalkLength);
  img.cfg.seed = h.seed;
  img.cfg.alpha = h.alpha;
  img.numVertices = h.numVertices;
  img.numWalks = h.numWalks;
  img.epoch = h.mcEpoch;
  // Full structural validation (lengths, vertex ids, index bounds)
  // happens here — "loads" means "safe to resume repairs on".
  try {
    return detail::mcDeserializeStore(img, numThreads);
  } catch (const std::runtime_error& e) {
    throw FileFormatError(path, "walk store", e.what());
  } catch (const std::invalid_argument& e) {
    throw FileFormatError(path, "walk config", e.what());
  }
}

}  // namespace

void writeCheckpoint(const std::string& dir, const CheckpointData& data) {
  // The csr half first: meta's existence implies "my csr is complete",
  // which only holds if the csr rename happened before the meta rename.
  // The walk sidecar sits between the two for the same reason — the
  // meta's sidecar flag must never name a file that is not fully there.
  const std::string csr = csrPath(dir, data.epoch);
  auto h = initHeader<CheckpointHeader>(kCheckpointMagic, kCheckpointVersion);
  h.csrChecksum = writeCsrFile(csr, data.graph);
  h.epoch = data.epoch;
  h.journalSeq = data.journalSeq;
  h.numVertices = data.ranks.size();
  h.batchesApplied = data.batchesApplied;
  h.edgesIngested = data.edgesIngested;
  h.iterations = static_cast<std::uint32_t>(std::max(data.iterations, 0));
  h.flags = data.walks ? kCheckpointFlagWalkSidecar : 0;
  h.toleranceBound = data.toleranceBound;
  h.payloadBytes = data.ranks.size() * sizeof(double);
  h.checksum = checksum64(std::as_bytes(std::span(data.ranks)));

  const std::string walks = walksPath(dir, data.epoch);
  try {
    if (data.walks) writeWalkSidecar(walks, h, *data.walks);
    writeDurably(metaPath(dir, data.epoch),
                 {"ckpt.meta.open", "ckpt.meta.fsync", "ckpt.meta.rename"},
                 [&](io::FdFile& out) {
                   out.write(&h, sizeof(h), "ckpt.meta.write");
                   out.write(data.ranks.data(), h.payloadBytes, "ckpt.meta.write");
                 });
  } catch (const FailPointAbort&) {
    throw;  // a real crash leaves the tmps; sweepStaleTmpFiles handles them
  } catch (...) {
    std::error_code ignored;
    fs::remove(walks, ignored);  // orphan halves are just noise
    fs::remove(csr, ignored);
    throw;
  }
}

std::optional<CheckpointData> loadNewestCheckpoint(
    const std::string& dir, VertexId numVertices,
    const std::function<void(const std::string&)>& onWarning,
    int numThreads) {
  const auto warn = [&](const std::string& m) {
    if (onWarning) onWarning(m);
  };

  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (const auto e = metaEpoch(entry.path())) epochs.push_back(*e);
  if (ec) return std::nullopt;  // unreadable dir = no checkpoint
  std::sort(epochs.rbegin(), epochs.rend());

  for (const std::uint64_t epoch : epochs) {
    const std::string meta = metaPath(dir, epoch);
    const std::string csr = csrPath(dir, epoch);
    try {
      const MmapFile map = MmapFile::open(meta);
      const auto bytes = map.bytes();
      const auto h = readHeader<CheckpointHeader>(bytes, kCheckpointMagic,
                                                  kCheckpointVersion, meta);
      if (h.epoch != epoch)
        throw FileFormatError(meta, "epoch", "disagrees with the file name");
      if (h.numVertices != numVertices)
        throw FileFormatError(meta, "numVertices",
                              std::to_string(h.numVertices) +
                                  " does not match the service's " +
                                  std::to_string(numVertices));
      const auto payload = bytes.subspan(sizeof(h));
      CheckpointData data;
      BoundedReader r(payload, meta);
      r.readVector(data.ranks, h.numVertices, "numVertices");
      r.expectEnd("numVertices");
      if (h.payloadBytes != payload.size())
        throw FileFormatError(meta, "payloadBytes", "rank payload size mismatch");
      if (checksum64(payload) != h.checksum)
        throw FileFormatError(meta, "checksum", "rank payload checksum mismatch");
      if (csrFileChecksum(csr) != h.csrChecksum)
        throw FileFormatError(meta, "csrChecksum",
                              "paired csr checksum disagrees with the meta");

      data.epoch = h.epoch;
      data.journalSeq = h.journalSeq;
      data.batchesApplied = h.batchesApplied;
      data.edgesIngested = h.edgesIngested;
      data.iterations = static_cast<int>(h.iterations);
      data.toleranceBound = h.toleranceBound;
      data.graph = mapCsrFile(csr);  // full validation + checksum pass

      // The pair is good. The walk sidecar (when announced) is strictly
      // optional on top: any failure — missing, truncated, version skew,
      // checksum tamper, structural rot — quarantines it and the
      // checkpoint still loads, so recovery rebuilds the store from the
      // journal instead of resuming. Approximate resume state must never
      // veto exact rank recovery.
      if ((h.flags & kCheckpointFlagWalkSidecar) != 0) {
        const std::string walks = walksPath(dir, epoch);
        try {
          data.walkStore = loadWalkSidecar(walks, h, numThreads);
        } catch (const FailPointAbort&) {
          throw;
        } catch (const std::exception& e) {
          const std::string torn = walks + ".torn";
          std::error_code qec;
          fs::rename(walks, torn, qec);
          data.walkSidecarQuarantined = true;
          warn("checkpoint epoch " + std::to_string(epoch) +
               " walk sidecar is invalid (" + std::string(e.what()) +
               "); quarantined to '" + torn +
               "'; the walk store will be rebuilt from the journal");
        }
      }
      return data;
    } catch (const FailPointAbort&) {
      throw;
    } catch (const std::exception& e) {
      warn("checkpoint epoch " + std::to_string(epoch) + " in '" + dir +
           "' is invalid (" + e.what() + "); trying the next older one");
    }
  }
  return std::nullopt;
}

void pruneCheckpoints(const std::string& dir, std::uint64_t keepEpoch) {
  // Crash site of its own: a kill here leaves extra complete sets, which
  // recovery tolerates (it takes the newest valid one), but must never
  // half-delete the set it was told to keep — hence matching whole sets
  // by epoch rather than deleting file by suffix.
  LFPR_FAILPOINT("ckpt.prune");
  std::error_code ec;
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto epoch = ckptSetEpoch(entry.path());
    if (epoch && *epoch != keepEpoch) doomed.push_back(entry.path());
  }
  for (const auto& p : doomed) fs::remove(p, ec);
}

void sweepStaleTmpFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) fs::remove(entry.path(), ec);
  }
}

}  // namespace lfpr
