// Social/interaction stream scenario (the sx-stackoverflow workload of
// Table 1): a temporal edge stream is replayed with the paper's protocol
// — 90% preload, then insertion-only batches — while a RankService
// maintains influence scores (PageRank) incrementally and the most
// influential users are tracked over time. Each batch is submitted to
// the resident engine; queries answer against the published epoch with
// its §4.5 certificate, never against in-flight iteration state.
//
//   ./social_stream [numBatches]
#include <cstdio>
#include <cstdlib>

#include "generate/generators.hpp"
#include "generate/temporal_replay.hpp"
#include "pagerank/pagerank.hpp"
#include "service/rank_service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace lfpr;

int main(int argc, char** argv) {
  const std::size_t numBatches =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;

  // Synthetic interaction stream: 20k users, 150k timestamped events with
  // repeat interactions, mimicking a Q&A site's activity stream. Narrow
  // temporal-locality windows give the stream the large effective
  // diameter that keeps incremental updates local.
  Rng rng(7);
  TemporalEdgeListData stream;
  stream.numVertices = 20000;
  stream.edges = generateTemporalStream(stream.numVertices, 150000,
                                        /*duplicateFraction=*/0.35, rng,
                                        /*hubFraction=*/0.04,
                                        /*localityWindow=*/stream.numVertices / 250);

  auto replay = makeTemporalReplay(stream, 0.9, 1e-3, numBatches);
  std::printf("stream: %llu events, %llu distinct edges; %zu batches of ~%zu\n",
              static_cast<unsigned long long>(replay.numTemporalEdges),
              static_cast<unsigned long long>(replay.numStaticEdges),
              replay.batches.size(),
              replay.batches.empty() ? 0 : replay.batches.front().insertions.size());

  ServiceOptions sopt;
  sopt.solver.numThreads = 4;

  RankService service(replay.initial.toCsr(), sopt);
  service.waitForEpoch(1);
  {
    const auto top = service.topK(1);
    std::printf("after preload: most influential user = %u\n",
                top.empty() ? 0u : top.front().first);
  }

  double totalMs = 0.0;
  for (std::size_t b = 0; b < replay.batches.size(); ++b) {
    const std::size_t events = replay.batches[b].insertions.size();
    const Stopwatch sw;
    service.submit(std::move(replay.batches[b]));
    service.waitIdle();
    const double ms = sw.elapsedMs();
    totalMs += ms;
    const SnapshotView snap = service.snapshot();
    const auto top = snap->topK(1);
    std::printf(
        "batch %zu: +%zu events, %.1f ms, epoch %llu (certificate %.1e), "
        "top user %u\n",
        b + 1, events, ms, static_cast<unsigned long long>(snap->epoch),
        snap->toleranceBound, top.empty() ? 0u : top.front().first);
  }
  if (!replay.batches.empty()) {
    const auto stats = service.stats();
    std::printf("\nmean per batch: %.1f ms; %llu publishes over %llu solves, "
                "%llu edges ingested\n",
                totalMs / static_cast<double>(replay.batches.size()),
                static_cast<unsigned long long>(stats.publishes),
                static_cast<unsigned long long>(stats.solves),
                static_cast<unsigned long long>(stats.edgesIngested));
  }
  return 0;
}
