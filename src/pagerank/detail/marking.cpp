#include "pagerank/detail/marking.hpp"

#include <vector>

#include "pagerank/detail/common.hpp"
#include "pagerank/detail/flags.hpp"

namespace lfpr::detail {

namespace {

// Marks go through the shared release-RMW primitive (flags.hpp): a
// helping rescan can re-mark a vertex while another thread is already
// iterating (and clearing flags), so marking participates in the same
// release-sequence protocol as the frontier expansion — see the
// termination-protocol comment in lf_iterate.cpp. The affected store is
// not part of that protocol, so it is skipped when the flag is already
// set (markAffected, RMW-diet item a).
void markVertex(const MarkShared& s, StepCounters& cnt, VertexId w) {
  markAffected(s.affected, w);
  markVertexUnconverged(s.notConverged, s.chunkFlags, s.chunkSize, w);
  cnt.flagRmws += s.chunkFlags != nullptr ? 2 : 1;
}

/// Iterative DFS over the current graph marking every reachable vertex.
/// `localPrune` selects the pruning set: against the shared affected
/// flags (fast; assumes the competing marker finishes) or against a
/// thread-local visited set (used in helping rescans so a crashed
/// marker's half-done traversal can never hide vertices; see Section 4.4
/// — helping threads re-execute work rather than wait for it).
void visitDfs(const MarkShared& s, StepCounters& cnt, VertexId start,
              std::vector<VertexId>& stack,
              std::vector<std::uint8_t>* localVisited) {
  auto tryClaim = [&](VertexId w) -> bool {
    if (localVisited != nullptr) {
      if ((*localVisited)[w] != 0) return false;
      (*localVisited)[w] = 1;
      markVertex(s, cnt, w);
      return true;
    }
    const bool first = s.affected.exchange(w, 1) == 0;
    if (first) {
      markVertexUnconverged(s.notConverged, s.chunkFlags, s.chunkSize, w);
      cnt.flagRmws += s.chunkFlags != nullptr ? 2 : 1;
    }
    return first;
  };

  stack.clear();
  if (!tryClaim(start)) return;
  stack.push_back(start);
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : s.curr.out(v))
      if (tryClaim(w)) stack.push_back(w);
  }
}

/// Mark everything required for batch source u, then publish via the
/// checked flag. Returns false if this thread crashed mid-way.
bool processSource(const MarkShared& s, StepCounters& cnt, int tid, VertexId u,
                   std::vector<VertexId>& stack,
                   std::vector<std::uint8_t>* localVisited) {
  if (s.checked.load(u, std::memory_order_acquire) == 1) return true;

  if (s.traverse) {
    if (u < s.prev.numVertices())
      for (VertexId w : s.prev.out(u)) visitDfs(s, cnt, w, stack, localVisited);
    for (VertexId w : s.curr.out(u)) visitDfs(s, cnt, w, stack, localVisited);
  } else {
    if (u < s.prev.numVertices())
      for (VertexId w : s.prev.out(u)) markVertex(s, cnt, w);
    for (VertexId w : s.curr.out(u)) markVertex(s, cnt, w);
  }
  // Release so a thread that observes checked == 1 also observes every
  // mark above (phase-2 readers and helping scanners).
  s.checked.store(u, 1, std::memory_order_release);
  if (s.fault != nullptr && !s.fault->onVertexProcessed(tid)) return false;
  return true;
}

}  // namespace

bool markAffectedWorker(const MarkShared& s, int tid, StepCounters& cnt) {
  std::vector<VertexId> stack;
  std::vector<std::uint8_t> localVisited;

  // DT traversals prune against the shared affected flags so concurrent
  // threads share work — sound only if whoever planted a flag finishes
  // its traversal. Under fault injection a marker can crash mid-DFS, so
  // every pass must prune against a thread-local visited set instead
  // (this thread's own completed traversals), trading re-traversal for
  // crash safety. The same applies to the helping rescans always: the
  // thread being helped may be stalled mid-traversal.
  const bool faultMode = s.traverse && s.fault != nullptr;
  if (faultMode) localVisited.assign(s.curr.numVertices(), 0);

  // First pass: drain the dynamically scheduled share of the batch.
  std::size_t begin = 0, end = 0;
  while (s.cursor.next(begin, end)) {
    for (std::size_t i = begin; i < end; ++i)
      if (!processSource(s, cnt, tid, s.edges[i].src, stack,
                         faultMode ? &localVisited : nullptr))
        return false;
  }

  // Helping rescans: keep sweeping the batch until every source has been
  // published as checked. Re-execution (rather than waiting) is what
  // makes this phase lock-free and crash-tolerant.
  for (;;) {
    bool allChecked = true;
    for (const Edge& e : s.edges) {
      if (s.checked.load(e.src, std::memory_order_acquire) == 0) {
        allChecked = false;
        if (s.traverse && localVisited.empty())
          localVisited.assign(s.curr.numVertices(), 0);
        if (!processSource(s, cnt, tid, e.src, stack,
                           s.traverse ? &localVisited : nullptr))
          return false;
      }
    }
    if (allChecked) return true;
  }
}

}  // namespace lfpr::detail
