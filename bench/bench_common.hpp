// Shared scaffolding for the figure/table reproduction benches: knobs
// from the environment, a standard header, and small timing helpers.
//
// Every bench prints (a) the configuration it ran with, (b) the paper's
// qualitative result ("paper_shape") the series should exhibit, and (c)
// an aligned table with the same rows/series the paper reports.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/datasets.hpp"
#include "harness/scenario.hpp"
#include "pagerank/pagerank.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace lfpr::bench {

struct BenchConfig {
  int scale = benchScale();
  int threads = benchThreads();
  int repeats = benchRepeats();
};

inline void printHeader(const std::string& title, const std::string& paperShape,
                        const BenchConfig& cfg) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "config: scale=" << cfg.scale << " threads=" << cfg.threads
            << " repeats=" << cfg.repeats
            << "  (LFPR_BENCH_SCALE / LFPR_BENCH_THREADS / LFPR_BENCH_REPEATS)\n";
  const std::string cache = datasetCacheDir();
  std::cout << "dataset_dir: " << (cache.empty() ? "(unset: regenerate per run)" : cache)
            << "  (LFPR_DATASET_DIR)\n";
  std::cout << "paper_shape: " << paperShape << "\n\n";
}

/// Snapshot for a dataset bench: mmap-loaded from LFPR_DATASET_DIR when
/// cached, generated (and persisted) otherwise.
inline CsrGraph loadCsr(const DatasetSpec& spec, const BenchConfig& cfg,
                        std::uint64_t seed = 1, bool* generated = nullptr) {
  return loadDatasetCsr(spec, cfg.scale, seed, generated);
}

/// Mutable graph for the batch benches, via the same cache.
inline DynamicDigraph loadGraph(const DatasetSpec& spec, const BenchConfig& cfg,
                                std::uint64_t seed = 1) {
  return loadDatasetGraph(spec, cfg.scale, seed);
}

/// Engine options for a graph of n vertices under the bench protocol
/// (scaled tolerances, bench thread count, paper chunk size scaled to the
/// vertex count so dynamic scheduling has enough chunks to balance).
inline PageRankOptions benchOptions(const BenchConfig& cfg, VertexId numVertices) {
  PageRankOptions opt = scaledOptions(numVertices);
  opt.numThreads = cfg.threads;
  const std::size_t perThread =
      numVertices / static_cast<std::size_t>(std::max(1, 8 * cfg.threads));
  opt.chunkSize = std::max<std::size_t>(64, std::min<std::size_t>(2048, perThread));
  return opt;
}

/// Median-of-repeats engine timing (milliseconds).
template <typename Fn>
double timedMs(const BenchConfig& cfg, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(cfg.repeats));
  for (int r = 0; r < cfg.repeats; ++r) {
    const Stopwatch sw;
    fn();
    times.push_back(sw.elapsedMs());
  }
  return median(times);
}

inline std::string fmtMs(double ms) { return Table::num(ms, 2); }

/// One-line protocol-cost readout (publish-protocol diagnostics without
/// perf tools); always zero for the barrier-based engines.
inline void printProtocolStats(const std::string& label, const PageRankResult& r) {
  std::cout << "protocol_stats[" << label
            << "]: rank_updates=" << r.rankUpdates
            << " re_pulls=" << r.protocolStats.rePulls
            << " flag_rmws=" << r.protocolStats.flagRmws
            << " residual_pushes=" << r.protocolStats.residualPushes
            << " activations=" << r.protocolStats.activations << "\n";
}

}  // namespace lfpr::bench
