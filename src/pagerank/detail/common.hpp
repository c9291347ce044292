// Shared engine internals: the rank-pull kernel (Equation 1 restricted to
// one vertex), the batch-edge list of the marking phase, and small
// padded per-thread accumulators.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "pagerank/atomics.hpp"
#include "pagerank/options.hpp"

namespace lfpr::detail {

struct alignas(64) PaddedDouble {
  double value = 0.0;
};

// The two pull kernels below both compute Equation 1 restricted to one
// vertex, r = (1-alpha)/n + alpha * sum_{u in G.in(v)} R[u] / outdeg(u),
// as a pure multiply-add: the division is precomputed per source
// (CsrGraph's contribution cache) and alpha is hoisted out of the loop,
// so the per-edge work is one gather plus one fma instead of a divide and
// two offset loads.

/// Contribution-cached kernel reading from a plain vector (synchronous BB
/// engines).
inline double pullRank(const CsrGraph& g, const std::vector<double>& ranks, VertexId v,
                       double alpha, double base) noexcept {
  const double* inv = g.invOutDegrees().data();
  double sum = 0.0;
  for (VertexId u : g.in(v)) sum += ranks[u] * inv[u];
  return base + alpha * sum;
}

/// Same, reading through the shared atomic rank vector (asynchronous LF
/// engines; updates by other threads become visible mid-iteration, the
/// Gauss-Seidel-like behaviour of Section 3.3.2).
inline double pullRank(const CsrGraph& g, const AtomicF64Vector& ranks, VertexId v,
                       double alpha, double base) noexcept {
  const double* inv = g.invOutDegrees().data();
  double sum = 0.0;
  for (VertexId u : g.in(v)) sum += ranks.load(u) * inv[u];
  return base + alpha * sum;
}

/// Mark w affected unless it already is. The affected bitmap is monotone
/// within a run (set-only once iteration starts) and tested only against
/// zero, and it is NOT part of the release-sequence termination protocol
/// — the rank publish rides the notConverged/chunkFlags release RMWs,
/// which stay unconditional (flags.hpp). Skipping the write avoids
/// re-dirtying the cache line for every expansion after the first
/// (RMW-diet item a in lf_iterate.cpp).
inline void markAffected(AtomicU8Vector& affected, VertexId w) noexcept {
  if (affected.load(w) == 0) affected.store(w, 1);
}

/// Dynamic-schedule chunk size for the batch-edge loop of the marking
/// phase. Batches are usually much smaller than the vertex set, so a
/// smaller chunk keeps the marking balanced.
inline constexpr std::size_t kEdgeChunkSize = 256;

/// The marking-phase input: deletions ++ insertions.
inline std::vector<Edge> concatBatch(const BatchUpdate& batch) {
  std::vector<Edge> edges;
  edges.reserve(batch.size());
  edges.insert(edges.end(), batch.deletions.begin(), batch.deletions.end());
  edges.insert(edges.end(), batch.insertions.begin(), batch.insertions.end());
  return edges;
}

/// Service lifecycle hook (PageRankOptions::stopRequested): a cooperative
/// stop is observed at the same boundaries as global convergence. The
/// flags stay the authority for `converged`, so a stopped run reports
/// honestly unconverged flags rather than a fake fixpoint.
inline bool stopSeen(const PageRankOptions& opt) noexcept {
  return opt.stopRequested != nullptr &&
         opt.stopRequested->load(std::memory_order_relaxed);
}

/// a = max(a, v) without locks.
inline void atomicMaxInt(std::atomic<int>& a, int v) noexcept {
  int cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace lfpr::detail
