#include "graph/csr_file.hpp"

#include <limits>
#include <memory>

#include "util/checksum.hpp"

namespace lfpr {

namespace {

constexpr std::size_t kAlign = 8;

/// One adjacency direction: offsets monotone from 0 to m, every endpoint
/// below n.
void checkAdjacency(std::span<const EdgeId> offsets, std::span<const VertexId> ends,
                    const std::string& path, const char* field) {
  const std::size_t n = offsets.size() - 1;
  if (offsets[0] != 0 || offsets[n] != ends.size())
    throw FileFormatError(path, "numEdges",
                          "offset arrays disagree with the header edge count");
  for (std::size_t v = 0; v < n; ++v)
    if (offsets[v] > offsets[v + 1])
      throw FileFormatError(path, field, "offsets are not monotone");
  for (const VertexId u : ends)
    if (u >= n) throw FileFormatError(path, field, "vertex id out of range");
}

}  // namespace

std::uint64_t writeCsrFile(const std::string& path, const CsrGraph& g) {
  auto h = initHeader<CsrFileHeader>(kCsrFileMagic, kCsrFileVersion);
  h.numVertices = g.numVertices();
  h.numEdges = g.numEdges();
  writeDurably(path, {"csr.open", "csr.fsync", "csr.rename"},
               [&](io::FdFile& out) {
                 // Header first as a placeholder: the checksum is only
                 // known after the payload pass, so it is backpatched
                 // before the file is published.
                 out.write(&h, sizeof(h), "csr.write");
                 Checksum64 sum;
                 const auto section = [&](const auto values) {
                   static constexpr char zeros[kAlign] = {};
                   const auto bytes = std::as_bytes(values);
                   const std::size_t pad = (kAlign - bytes.size() % kAlign) % kAlign;
                   for (const auto part : {bytes, std::as_bytes(std::span(zeros, pad))}) {
                     out.write(part.data(), part.size(), "csr.write");
                     sum.update(part);
                     h.payloadBytes += part.size();
                   }
                 };
                 section(g.outOffsets());
                 section(g.outTargets());
                 section(g.inOffsets());
                 section(g.inSources());
                 section(g.invOutDegrees());
                 h.checksum = sum.value();
                 out.pwriteAt(&h, sizeof(h), 0, "csr.backpatch");
               });
  return h.checksum;
}

CsrGraph mapCsrFile(const std::string& path) {
  auto store = std::make_shared<CsrGraph::Storage>();
  store->map = MmapFile::open(path);
  const auto bytes = store->map.bytes();
  const auto h =
      readHeader<CsrFileHeader>(bytes, kCsrFileMagic, kCsrFileVersion, path);
  if (h.numVertices > std::numeric_limits<VertexId>::max() - 1)
    throw FileFormatError(
        path, "numVertices",
        "vertex count " + std::to_string(h.numVertices) +
            " exceeds the 32-bit vertex id space (supported maximum " +
            std::to_string(std::numeric_limits<VertexId>::max() - 1) + ")");
  const auto payload = bytes.subspan(sizeof(CsrFileHeader));

  // Section sizes are pure functions of (|V|, |E|); slicing them checks
  // that the header's counts describe exactly the bytes present. The
  // mapping is page-aligned and every section a multiple of 8 bytes (an
  // odd |E| pads its id sections with one zero id), so each view is
  // aligned for its element type.
  const std::uint64_t n = h.numVertices;
  const std::uint64_t m = h.numEdges;
  BoundedReader r(payload, path);
  CsrGraph g;
  g.outOffsets_ = r.view<EdgeId>(n + 1, "numVertices");
  g.outTargets_ = r.view<VertexId>(m, "numEdges");
  (void)r.take<VertexId>(m % 2, "numEdges");
  g.inOffsets_ = r.view<EdgeId>(n + 1, "numVertices");
  g.inSources_ = r.view<VertexId>(m, "numEdges");
  (void)r.take<VertexId>(m % 2, "numEdges");
  g.invOutDeg_ = r.view<double>(n, "numVertices");
  r.expectEnd("numEdges");
  if (h.payloadBytes != payload.size())
    throw FileFormatError(path, "payloadBytes", "disagrees with the file size");

  store->map.adviseSequential();
  if (checksum64(payload) != h.checksum)
    throw FileFormatError(path, "checksum", "checksum mismatch (corrupt file)");

  // The checksum misses some multi-bit corruptions: FNV-1a over words
  // never carries a difference into lower bits, so flips confined to the
  // top bits of words can cancel. These O(n + m) checks turn every such
  // survivor that would index out of bounds into a named error (full
  // structural validation is validate(), O(m log d) — callers opt in).
  checkAdjacency(g.outOffsets_, g.outTargets_, path, "outTargets");
  checkAdjacency(g.inOffsets_, g.inSources_, path, "inSources");
  for (std::size_t u = 0; u < n; ++u) {
    const EdgeId d = g.outOffsets_[u + 1] - g.outOffsets_[u];
    if (g.invOutDeg_[u] != (d > 0 ? 1.0 / static_cast<double>(d) : 0.0))
      throw FileFormatError(path, "invOutDeg", "disagrees with the out degrees");
  }

  g.store_ = std::move(store);
  return g;
}

std::uint64_t csrFileChecksum(const std::string& path) {
  return readHeader<CsrFileHeader>(MmapFile::open(path).bytes(), kCsrFileMagic,
                                   kCsrFileVersion, path)
      .checksum;
}

CsrGraph readCsrFile(const std::string& path) {
  const CsrGraph mapped = mapCsrFile(path);
  auto s = std::make_shared<CsrGraph::Storage>();
  s->outOffsets.assign(mapped.outOffsets_.begin(), mapped.outOffsets_.end());
  s->outTargets.assign(mapped.outTargets_.begin(), mapped.outTargets_.end());
  s->inOffsets.assign(mapped.inOffsets_.begin(), mapped.inOffsets_.end());
  s->inSources.assign(mapped.inSources_.begin(), mapped.inSources_.end());
  s->invOutDeg.assign(mapped.invOutDeg_.begin(), mapped.invOutDeg_.end());
  return CsrGraph::adopt(std::move(s));
}

}  // namespace lfpr
