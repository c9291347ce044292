// The paper's real-world-dynamic-graph protocol (Section 5.1.4): load the
// first 90% of a temporal edge stream as the initial graph, then replay
// the remaining 10% as consecutive insertion-only batch updates of size
// batchFraction * |E_T|.
//
// Two implementations of the same protocol: makeTemporalReplay
// materializes every batch in memory (small streams, tests), and
// TemporalReplayStream replays a persisted edge log (edge_log.hpp) with
// memory bounded by one batch — logs far larger than RAM replay fine,
// and each approach in a bench re-streams the log with its own cursor.
#pragma once

#include <string>
#include <vector>

#include "graph/dynamic_digraph.hpp"
#include "graph/edge_log.hpp"
#include "graph/io.hpp"
#include "graph/types.hpp"

namespace lfpr {

struct TemporalReplay {
  /// Initial graph (deduplicated 90% prefix, self-loops added).
  DynamicDigraph initial;
  /// Insertion-only batches covering the remaining stream, in order.
  std::vector<BatchUpdate> batches;
  EdgeId numTemporalEdges = 0;
  EdgeId numStaticEdges = 0;  // distinct edges over the whole stream
};

/// Build a replay from a temporal edge list. `maxBatches == 0` keeps all.
TemporalReplay makeTemporalReplay(const TemporalEdgeListData& data,
                                  double initialFraction, double batchFraction,
                                  std::size_t maxBatches = 0);

/// Out-of-core replay of a persisted edge log. Batch boundaries, sizes
/// and the initial graph are bit-for-bit those of makeTemporalReplay on
/// the same stream (the log is stored time-sorted), but only the initial
/// graph and one in-flight batch are ever resident.
class TemporalReplayStream {
 public:
  /// Opens the log and streams its prefix into the initial graph.
  /// Throws FileFormatError on a corrupt log, std::invalid_argument on bad
  /// fractions.
  TemporalReplayStream(std::string logPath, double initialFraction,
                       double batchFraction, std::size_t maxBatches = 0);

  [[nodiscard]] const DynamicDigraph& initial() const noexcept { return initial_; }
  [[nodiscard]] EdgeId numTemporalEdges() const noexcept { return numTemporalEdges_; }
  [[nodiscard]] EdgeId numStaticEdges() const noexcept { return numStaticEdges_; }
  [[nodiscard]] std::size_t batchSize() const noexcept { return batchSize_; }
  /// Number of batches a cursor will yield (cap applied).
  [[nodiscard]] std::size_t numBatches() const noexcept { return numBatches_; }

  /// One pass over the post-prefix records. Cursors are independent:
  /// every approach in a bench opens its own and streams the same
  /// batches.
  class BatchCursor {
   public:
    /// Fill `out` with the next batch (insertion-only); false at end.
    bool next(BatchUpdate& out);

   private:
    friend class TemporalReplayStream;
    BatchCursor(const std::string& path, EdgeId start, std::size_t batchSize,
                std::size_t numBatches);

    TemporalEdgeLogReader reader_;
    std::size_t batchSize_;
    std::size_t remainingBatches_;
    std::vector<TemporalEdge> chunk_;  // reused across next() calls
  };

  [[nodiscard]] BatchCursor batches() const;

 private:
  std::string logPath_;
  DynamicDigraph initial_;
  EdgeId numTemporalEdges_ = 0;
  EdgeId numStaticEdges_ = 0;
  EdgeId initialCount_ = 0;
  std::size_t batchSize_ = 1;
  std::size_t numBatches_ = 0;
};

}  // namespace lfpr
