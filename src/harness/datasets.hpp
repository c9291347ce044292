// Registry of deterministic synthetic stand-ins for the paper's datasets
// (Tables 1 and 2). Each spec records which paper graph it substitutes
// and that graph's published statistics so the dataset tables can print
// paper-vs-generated side by side. A stand-in keeps its class's degree
// skew, locality and effective diameter, which set how far a batch's
// rank change spreads, so the dynamic engines face the same regime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/dynamic_digraph.hpp"
#include "graph/io.hpp"

namespace lfpr {

struct DatasetSpec {
  std::string name;       // e.g. "indochina-2004-sim"
  std::string family;     // web | social | road | kmer
  std::string paperName;  // the SuiteSparse graph this stands in for
  double paperVertices;   // published |V|
  double paperEdges;      // published |E|
  double paperAvgDegree;  // published D_avg
  /// Builds the graph (self-loops included) from a seed.
  std::function<DynamicDigraph(std::uint64_t seed)> build;
};

/// The 12 static stand-ins of Table 2. `scale`: 0 smoke, 1 default, 2 big.
std::vector<DatasetSpec> staticDatasets(int scale);

/// One representative per family (for expensive fault benches).
std::vector<DatasetSpec> representativeDatasets(int scale);

struct TemporalDatasetSpec {
  std::string name;
  std::string paperName;
  double paperVertices;
  double paperTemporalEdges;
  double paperStaticEdges;
  std::function<TemporalEdgeListData(std::uint64_t seed)> build;
};

/// The 2 temporal stand-ins of Table 1.
std::vector<TemporalDatasetSpec> temporalDatasets(int scale);

// ---------------------------------------------------------------------------
// Dataset cache: generate once, mmap thereafter.
//
// When LFPR_DATASET_DIR is set, graphs are persisted as CSR snapshot
// files (csr_file.hpp) and temporal streams as edge logs (edge_log.hpp),
// keyed by (dataset name, scale, seed, format version); later runs load
// the snapshot zero-copy instead of regenerating — the difference between
// minutes and milliseconds at scale 2. Unset, static graphs are rebuilt
// in memory as before and temporal logs go to a per-user temp directory
// (the replay path always streams from a file).
// ---------------------------------------------------------------------------

/// Cache root from LFPR_DATASET_DIR; empty string = caching disabled.
std::string datasetCacheDir();

/// On-disk snapshot path for (spec, scale, seed) under the cache root —
/// the one place that knows the cache naming scheme (callers that mmap
/// the file directly, e.g. bench_micro_kernels, must not re-derive it).
/// Empty string when caching is disabled; the file exists once
/// loadDatasetCsr has run for the same key.
std::string datasetCsrPath(const DatasetSpec& spec, int scale, std::uint64_t seed);

/// CSR snapshot for (spec, scale, seed): mmap-loaded on a cache hit,
/// built (and persisted, cache enabled) on a miss. `generated`, when
/// non-null, reports whether spec.build actually ran — the observable
/// the dataset-cache CI smoke asserts on.
CsrGraph loadDatasetCsr(const DatasetSpec& spec, int scale, std::uint64_t seed,
                        bool* generated = nullptr);

/// Mutable-graph equivalent for benches that apply batches; a cache hit
/// reconstructs the adjacency from the snapshot instead of regenerating.
DynamicDigraph loadDatasetGraph(const DatasetSpec& spec, int scale,
                                std::uint64_t seed, bool* generated = nullptr);

/// Path to the persisted temporal edge log for (spec, scale, seed),
/// written on first use (under the cache dir, or a temp dir when the
/// cache is disabled).
std::string temporalLogPath(const TemporalDatasetSpec& spec, int scale,
                            std::uint64_t seed);

}  // namespace lfpr
