#include "graph/edge_log.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "util/checksum.hpp"

namespace lfpr {

namespace {

void checkEndpoints(std::span<const TemporalEdge> records, VertexId n,
                    const std::string& path) {
  for (const TemporalEdge& e : records)
    if (e.src >= n || e.dst >= n)
      throw FileFormatError(path, "records",
                            "edge endpoint out of range of the header's " +
                                std::to_string(n) + " vertices");
}

}  // namespace

void writeTemporalEdgeLog(const std::string& path, const TemporalEdgeListData& data) {
  // Stable sort by timestamp: the replay protocol's order (stream order
  // preserved among equal timestamps), baked in once at write time.
  std::vector<TemporalEdge> stream = data.edges;
  std::stable_sort(stream.begin(), stream.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });

  std::uint64_t numStatic = 0;
  {
    std::unordered_set<Edge, EdgeHash> distinct;
    distinct.reserve(stream.size() * 2);
    for (const TemporalEdge& e : stream) distinct.insert({e.src, e.dst});
    numStatic = distinct.size();
  }

  auto h = initHeader<EdgeLogHeader>(kEdgeLogMagic, kEdgeLogVersion);
  h.numVertices = data.numVertices;
  h.numEdges = stream.size();
  h.numStaticEdges = numStatic;
  h.payloadBytes = stream.size() * sizeof(TemporalEdge);
  h.checksum = checksum64(std::as_bytes(std::span(stream)));
  writeDurably(path, {"elog.open", "elog.fsync", "elog.rename"},
               [&](io::FdFile& out) {
                 out.write(&h, sizeof(h), "elog.write");
                 out.write(stream.data(), h.payloadBytes, "elog.write");
               });
}

TemporalEdgeListData readTemporalEdgeLog(const std::string& path) {
  const TemporalEdgeLogReader log(path);
  log.verify();
  return {log.numVertices(), {log.records_.begin(), log.records_.end()}};
}

void verifyTemporalEdgeLog(const std::string& path) { TemporalEdgeLogReader(path).verify(); }

TemporalEdgeLogReader::TemporalEdgeLogReader(const std::string& path,
                                             LogTailPolicy tail)
    : map_(MmapFile::open(path)), path_(path) {
  const auto bytes = map_.bytes();
  const auto h = readHeader<EdgeLogHeader>(bytes, kEdgeLogMagic, kEdgeLogVersion, path);
  if (h.numVertices > std::numeric_limits<VertexId>::max() - 1)
    throw FileFormatError(
        path, "numVertices",
        "vertex count " + std::to_string(h.numVertices) +
            " exceeds the 32-bit vertex id space (supported maximum " +
            std::to_string(std::numeric_limits<VertexId>::max() - 1) + ")");
  if (h.numStaticEdges > h.numEdges)
    throw FileFormatError(path, "numStaticEdges",
                          "distinct edge count exceeds the record count");
  // Divide rather than multiply: a forged count cannot wrap.
  if (h.payloadBytes % sizeof(TemporalEdge) != 0 ||
      h.payloadBytes / sizeof(TemporalEdge) != h.numEdges)
    throw FileFormatError(path, "numEdges",
                          "record count disagrees with the payload size field");
  numVertices_ = static_cast<VertexId>(h.numVertices);
  numStaticEdges_ = h.numStaticEdges;
  checksum_ = h.checksum;

  const auto payload = bytes.subspan(sizeof(EdgeLogHeader));
  std::uint64_t count = h.numEdges;
  if (payload.size() != h.payloadBytes) {
    const std::string sizes = ": expected " + std::to_string(h.payloadBytes) +
                              " payload bytes, file has " +
                              std::to_string(payload.size());
    if (payload.size() > h.payloadBytes)
      throw FileFormatError(path, "numEdges", "oversize" + sizes);
    if (tail == LogTailPolicy::Strict)
      throw FileFormatError(path, "numEdges", "truncated" + sizes);
    // QuarantineTorn: a crashed appender's torn final write is clean
    // EOF, not corruption — clamp to the last complete record.
    count = payload.size() / sizeof(TemporalEdge);
    quarantinedBytes_ = payload.size() % sizeof(TemporalEdge);
    tornTail_ = true;
  }
  records_ = BoundedReader(payload, path).view<TemporalEdge>(count, "numEdges");
}

void TemporalEdgeLogReader::verify() const {
  map_.adviseSequential();
  if (checksum64(std::as_bytes(records_)) != checksum_)
    throw FileFormatError(path_, "checksum", "checksum mismatch (corrupt file)");
  checkEndpoints(records_, numVertices_, path_);
}

void TemporalEdgeLogReader::seek(EdgeId index) { pos_ = std::min(index, numEdges()); }

std::size_t TemporalEdgeLogReader::read(std::span<TemporalEdge> out) {
  const auto chunk = records_.subspan(
      pos_, static_cast<std::size_t>(std::min<EdgeId>(numEdges() - pos_, out.size())));
  checkEndpoints(chunk, numVertices_, path_);
  std::copy(chunk.begin(), chunk.end(), out.begin());
  pos_ += chunk.size();
  return chunk.size();
}

}  // namespace lfpr
