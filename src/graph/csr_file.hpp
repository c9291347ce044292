// Versioned binary on-disk CSR snapshot format.
//
// Layout (little-endian, all sections 8-byte aligned):
//
//   CsrFileHeader   48 bytes: magic "LFPRCSR\n", version, header size,
//                   |V|, |E|, payload byte count, payload checksum
//   outOffsets      (|V|+1) x u64
//   outTargets      |E| x u32, zero-padded to 8 bytes
//   inOffsets       (|V|+1) x u64
//   inSources       |E| x u32, zero-padded to 8 bytes
//   invOutDeg       |V| x f64
//
// The section layout is fully determined by (|V|, |E|), so a mapped file
// is consumed zero-copy: mapCsrFile() returns a CsrGraph whose spans
// point into the mapping (shared, immutable, mutex-free — the pull
// kernels and engines read it exactly like an in-process snapshot).
// Framing (durable write, header check, bounded section slicing,
// FileFormatError) is util/framed_file.hpp's.
#pragma once

#include <cstdint>
#include <string>

#include "graph/csr.hpp"
#include "util/framed_file.hpp"

namespace lfpr {

inline constexpr std::uint32_t kCsrFileVersion = 1;
inline constexpr char kCsrFileMagic[8] = {'L', 'F', 'P', 'R', 'C', 'S', 'R', '\n'};

struct CsrFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t headerBytes;
  std::uint64_t numVertices;
  std::uint64_t numEdges;
  std::uint64_t payloadBytes;
  std::uint64_t checksum;
};
static_assert(sizeof(CsrFileHeader) == 48, "header layout is part of the format");

/// Serialize a snapshot through writeDurably, so a crashed writer never
/// leaves a plausible-looking partial snapshot behind, and return the
/// payload checksum it recorded. Syscall failures throw io::IoError
/// (diskFull() tells callers to degrade rather than fail).
std::uint64_t writeCsrFile(const std::string& path, const CsrGraph& g);

/// Zero-copy load: validate the file, then return a CsrGraph borrowing
/// the mapping (kept alive by the graph's shared storage). Throws
/// FileFormatError on bad magic, unsupported version, a section that
/// overflows or overruns the file, trailing bytes, or checksum mismatch.
CsrGraph mapCsrFile(const std::string& path);

/// Owned load: like mapCsrFile but copies the arrays into process-owned
/// vectors (no mapping outlives the call).
CsrGraph readCsrFile(const std::string& path);

/// The payload checksum recorded in `path`'s header (magic/version
/// validated, payload not re-read). The checkpoint sidecar stores this to
/// bind its meta half to one specific csr half.
std::uint64_t csrFileChecksum(const std::string& path);

}  // namespace lfpr
