#include "harness/datasets.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "generate/generators.hpp"
#include "graph/csr_file.hpp"
#include "graph/edge_log.hpp"
#include "util/rng.hpp"

namespace lfpr {

namespace {

// Scale 2 is sized so the big web stand-ins reach ~30M edges: the pull
// kernels' working set (in-sources + rank vector) then exceeds even a
// 105 MiB server L3, which is the regime the paper's SuiteSparse graphs
// occupy, so the mapped-snapshot kernel benches measure a memory-bound
// gather there. Generating that tier takes minutes — use the dataset
// cache (LFPR_DATASET_DIR) so it happens once.
double scaleFactor(int scale) {
  switch (scale) {
    case 0: return 0.35;
    case 2: return 24.0;
    default: return 1.0;
  }
}

DynamicDigraph finalize(VertexId numVertices, std::vector<Edge> edges) {
  appendSelfLoops(edges, numVertices);
  return DynamicDigraph::fromEdges(numVertices, edges);
}

/// Host-structured web-crawl stand-in (see generateWebGraph): power-law
/// degrees plus the site-locality that gives real crawls their large
/// effective diameter.
DatasetSpec webSpec(std::string name, std::string paperName, double pV, double pE,
                    double pD, VertexId numPages, double avgDegree, int scale) {
  const auto n = static_cast<VertexId>(scaleFactor(scale) *
                                       static_cast<double>(numPages));
  return DatasetSpec{
      std::move(name), "web", std::move(paperName), pV, pE, pD,
      [n, avgDegree](std::uint64_t seed) {
        Rng rng(seed);
        // Small hosts keep the frontier ball (a few host-hops wide) at a
        // few hundred pages; with tens of thousands of hosts the ball is
        // a small share of the graph, as on the real multi-million-page
        // crawls.
        return finalize(n, generateWebGraph(n, /*hostSize=*/50, avgDegree, rng));
      }};
}

DatasetSpec socialSpec(std::string name, std::string paperName, double pV, double pE,
                       double pD, VertexId numVertices, VertexId edgesPerVertex,
                       int scale) {
  const auto n = static_cast<VertexId>(scaleFactor(scale) *
                                       static_cast<double>(numVertices));
  return DatasetSpec{
      std::move(name), "social", std::move(paperName), pV, pE, pD,
      [n, edgesPerVertex](std::uint64_t seed) {
        Rng rng(seed);
        return finalize(n, symmetrize(generateBarabasiAlbert(n, edgesPerVertex, rng)));
      }};
}

DatasetSpec roadSpec(std::string name, std::string paperName, double pV, double pE,
                     double pD, VertexId rows, VertexId cols, int scale) {
  const double f = std::sqrt(scaleFactor(scale));
  const auto r = static_cast<VertexId>(f * static_cast<double>(rows));
  const auto c = static_cast<VertexId>(f * static_cast<double>(cols));
  return DatasetSpec{
      std::move(name), "road", std::move(paperName), pV, pE, pD,
      [r, c](std::uint64_t seed) {
        Rng rng(seed);
        // Shortcuts are kept rare: long-range links shrink the effective
        // diameter, and the Dynamic Frontier's advantage on road networks
        // rests on diameter >> frontier radius.
        auto edges = generateGrid(r, c, /*shortcutFraction=*/0.002, rng);
        // Thin the lattice toward the road-network average degree (~3.1):
        // drop a quarter of the undirected links before symmetrizing.
        std::vector<Edge> kept;
        kept.reserve(edges.size());
        for (const Edge& e : edges)
          if (!rng.chance(0.25)) kept.push_back(e);
        return finalize(r * c, symmetrize(kept));
      }};
}

DatasetSpec kmerSpec(std::string name, std::string paperName, double pV, double pE,
                     double pD, VertexId numVertices, int scale) {
  const auto n = static_cast<VertexId>(scaleFactor(scale) *
                                       static_cast<double>(numVertices));
  return DatasetSpec{
      std::move(name), "kmer", std::move(paperName), pV, pE, pD,
      [n](std::uint64_t seed) {
        Rng rng(seed);
        return finalize(n, symmetrize(generateKmerChains(n, /*branch=*/0.55, rng)));
      }};
}

}  // namespace

std::vector<DatasetSpec> staticDatasets(int scale) {
  std::vector<DatasetSpec> specs;
  // Web graphs (LAW) — directed, power-law, avg degree ~24-39.
  specs.push_back(webSpec("indochina-2004-sim", "indochina-2004", 7.41e6, 199e6, 26.8,
                          48000, 26.8, scale));
  specs.push_back(webSpec("arabic-2005-sim", "arabic-2005", 22.7e6, 654e6, 28.8, 48000,
                          28.8, scale));
  specs.push_back(
      webSpec("uk-2005-sim", "uk-2005", 39.5e6, 961e6, 24.3, 48000, 24.3, scale));
  specs.push_back(webSpec("webbase-2001-sim", "webbase-2001", 118e6, 1.11e9, 9.4,
                          96000, 9.4, scale));
  specs.push_back(
      webSpec("it-2004-sim", "it-2004", 41.3e6, 1.18e9, 28.5, 48000, 28.5, scale));
  specs.push_back(
      webSpec("sk-2005-sim", "sk-2005", 50.6e6, 1.98e9, 39.1, 32000, 39.1, scale));
  // Social networks (SNAP) — undirected originals, heavy-tailed.
  specs.push_back(socialSpec("com-LiveJournal-sim", "com-LiveJournal", 4.00e6, 73.4e6,
                             18.3, 12000, 9, scale));
  specs.push_back(
      socialSpec("com-Orkut-sim", "com-Orkut", 3.07e6, 237e6, 77.3, 5000, 38, scale));
  // Road networks (DIMACS10) — near-planar, avg degree ~3.1. Side lengths
  // are kept well above the ~50-hop frontier radius so small updates stay
  // local (the property that makes road networks DF's best case, 5.2.2).
  specs.push_back(
      roadSpec("asia_osm-sim", "asia_osm", 12.0e6, 37.4e6, 3.1, 220, 280, scale));
  specs.push_back(
      roadSpec("europe_osm-sim", "europe_osm", 50.9e6, 159e6, 3.1, 280, 360, scale));
  // Protein k-mer graphs (GenBank) — long chains, avg degree ~3.1.
  specs.push_back(kmerSpec("kmer_A2a-sim", "kmer_A2a", 171e6, 531e6, 3.1, 60000, scale));
  specs.push_back(kmerSpec("kmer_V1r-sim", "kmer_V1r", 214e6, 679e6, 3.2, 80000, scale));
  return specs;
}

std::vector<DatasetSpec> representativeDatasets(int scale) {
  auto all = staticDatasets(scale);
  std::vector<DatasetSpec> out;
  for (auto& spec : all)
    if (spec.name == "indochina-2004-sim" || spec.name == "com-LiveJournal-sim" ||
        spec.name == "asia_osm-sim" || spec.name == "kmer_A2a-sim")
      out.push_back(std::move(spec));
  return out;
}

std::vector<TemporalDatasetSpec> temporalDatasets(int scale) {
  const double f = scaleFactor(scale);
  std::vector<TemporalDatasetSpec> specs;
  // Temporal locality (narrow recent-vertex windows) is what gives these
  // streams an effective diameter that grows with size — the property
  // that keeps the Dynamic Frontier local on the real wiki-talk /
  // sx-stackoverflow graphs (avg degree ~3, millions of vertices).
  // The stand-ins must satisfy diameter >> frontier radius (~85 sparse-
  // graph hops at tau_f = tau/1000) for the Dynamic Frontier to stay
  // local, as it does on the 1M+-vertex originals; hence large n, narrow
  // windows, and few hub links.
  // wiki-talk-temporal: |V| 1.14M, |E_T| 7.83M, |E| 3.31M  (|E|/|E_T| ~ 0.42)
  {
    const auto n = static_cast<VertexId>(120000 * f);
    const auto m = static_cast<EdgeId>(600000 * f);
    specs.push_back(TemporalDatasetSpec{
        "wiki-talk-temporal-sim", "wiki-talk-temporal", 1.14e6, 7.83e6, 3.31e6,
        [n, m](std::uint64_t seed) {
          Rng rng(seed);
          TemporalEdgeListData data;
          data.numVertices = n;
          data.edges = generateTemporalStream(n, m, /*duplicateFraction=*/0.45, rng,
                                              /*hubFraction=*/0.04,
                                              /*localityWindow=*/n / 250);
          return data;
        }});
  }
  // sx-stackoverflow: |V| 2.60M, |E_T| 63.4M, |E| 36.2M  (|E|/|E_T| ~ 0.57)
  {
    const auto n = static_cast<VertexId>(140000 * f);
    const auto m = static_cast<EdgeId>(840000 * f);
    specs.push_back(TemporalDatasetSpec{
        "sx-stackoverflow-sim", "sx-stackoverflow", 2.60e6, 63.4e6, 36.2e6,
        [n, m](std::uint64_t seed) {
          Rng rng(seed);
          TemporalEdgeListData data;
          data.numVertices = n;
          data.edges = generateTemporalStream(n, m, /*duplicateFraction=*/0.30, rng,
                                              /*hubFraction=*/0.04,
                                              /*localityWindow=*/n / 250);
          return data;
        }});
  }
  return specs;
}

namespace {

namespace fs = std::filesystem;

/// (name, scale, seed, format version) — bumping a format version
/// invalidates old cache entries by changing the file name, so stale
/// snapshots are never even opened.
std::string cacheFileName(const std::string& name, int scale, std::uint64_t seed,
                          std::uint32_t version, const char* ext) {
  return name + "-scale" + std::to_string(scale) + "-seed" + std::to_string(seed) +
         "-v" + std::to_string(version) + ext;
}

fs::path ensuredDir(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // ok if it already exists
  return dir;
}

}  // namespace

std::string datasetCacheDir() {
  const char* dir = std::getenv("LFPR_DATASET_DIR");
  return dir != nullptr ? std::string(dir) : std::string();
}

std::string datasetCsrPath(const DatasetSpec& spec, int scale, std::uint64_t seed) {
  const std::string root = datasetCacheDir();
  if (root.empty()) return {};
  return (fs::path(root) /
          cacheFileName(spec.name, scale, seed, kCsrFileVersion, ".csr"))
      .string();
}

CsrGraph loadDatasetCsr(const DatasetSpec& spec, int scale, std::uint64_t seed,
                        bool* generated) {
  if (generated != nullptr) *generated = false;
  const std::string path = datasetCsrPath(spec, scale, seed);
  if (path.empty()) {
    if (generated != nullptr) *generated = true;
    return spec.build(seed).toCsr();
  }

  ensuredDir(fs::path(path).parent_path());
  std::error_code ec;
  if (fs::exists(path, ec)) return mapCsrFile(path);
  if (generated != nullptr) *generated = true;
  CsrGraph g = spec.build(seed).toCsr();
  writeCsrFile(path, g);
  // Hand back the mapped snapshot, not the freshly built vectors: first
  // and later runs then measure the identical read path.
  return mapCsrFile(path);
}

DynamicDigraph loadDatasetGraph(const DatasetSpec& spec, int scale,
                                std::uint64_t seed, bool* generated) {
  if (generated != nullptr) *generated = false;
  const std::string path = datasetCsrPath(spec, scale, seed);
  if (path.empty()) {
    if (generated != nullptr) *generated = true;
    return spec.build(seed);
  }

  ensuredDir(fs::path(path).parent_path());
  std::error_code ec;
  if (fs::exists(path, ec)) return DynamicDigraph::fromCsr(mapCsrFile(path));
  if (generated != nullptr) *generated = true;
  DynamicDigraph g = spec.build(seed);
  writeCsrFile(path, g.toCsr());
  return g;
}

std::string temporalLogPath(const TemporalDatasetSpec& spec, int scale,
                            std::uint64_t seed) {
  const std::string root = datasetCacheDir();
  // Cache disabled: the replay path still needs a file, but the contract
  // is "regenerate per run" — a per-process temp dir keeps one run's
  // repeated loads cheap without ever replaying a stale log from an
  // earlier build (and sidesteps multi-user /tmp ownership clashes).
  const fs::path dir =
      root.empty() ? fs::temp_directory_path() /
                         ("lfpr-datasets-" + std::to_string(::getpid()))
                   : fs::path(root);
  const fs::path path =
      ensuredDir(dir) / cacheFileName(spec.name, scale, seed, kEdgeLogVersion, ".elog");
  std::error_code ec;
  if (!fs::exists(path, ec)) writeTemporalEdgeLog(path.string(), spec.build(seed));
  return path.string();
}

}  // namespace lfpr
