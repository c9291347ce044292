// Phase 1 of the dynamic lock-free engines: marking the initially
// affected vertices of a batch update, with the paper's *helping
// mechanism* (Section 4.3/4.4).
//
// Each batch edge (u, v) requires the out-neighbours of u in both the
// previous and current snapshots to be marked (DF), or everything
// reachable from them to be marked (DT). The per-source "checked" flag
// vector C lets threads help one another: after draining its dynamically
// assigned share, a thread rescans the batch and re-processes any source
// whose C flag is still 0 — re-executing, not waiting, so a stalled or
// crashed thread can never block phase 2. Marking is idempotent, so the
// resulting races are harmless.
#pragma once

#include <span>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/detail/step_counters.hpp"
#include "sched/chunk_cursor.hpp"
#include "sched/fault.hpp"

namespace lfpr::detail {

struct MarkShared {
  const CsrGraph& prev;
  const CsrGraph& curr;
  /// Concatenated deletions ++ insertions.
  std::span<const Edge> edges;
  /// Per-source-vertex checked flags (size = numVertices).
  AtomicU8Vector& checked;
  AtomicU8Vector& affected;
  AtomicU8Vector& notConverged;
  /// Optional per-chunk flags (DF-LF ablation); chunk = vertex/chunkSize.
  AtomicU8Vector* chunkFlags = nullptr;
  std::size_t chunkSize = 2048;
  /// Shared first-pass work pool over `edges`.
  ChunkCursor& cursor;
  /// DT: mark everything reachable from the initial set (DFS over curr);
  /// DF: mark only the immediate out-neighbours.
  bool traverse = false;
  FaultInjector* fault = nullptr;
};

/// Runs the initial-marking phase on the calling worker thread, counting
/// its flag RMWs into `cnt`. Returns false if the thread crashed (fault
/// injection); in that case the remaining threads complete the marking
/// via the helping rescan.
bool markAffectedWorker(const MarkShared& shared, int tid, StepCounters& cnt);

}  // namespace lfpr::detail
