// Immutable rank vector published by the RankService (service layer,
// PR 6) at a convergence boundary. A snapshot is built once by the
// ingest thread and published through SnapshotBox's atomic pointer
// flip — readers holding a SnapshotView see one consistent ranking no
// matter how many batches land concurrently. Its facts are never
// mutated after publish. The one write after publish is the topK
// prefix cache: a reader installs a sorted prefix of the ranking with
// one CAS on an atomic pointer, the prefix itself is immutable, and
// every installed prefix lives until the snapshot is freed (after the
// SnapshotBox grace period), so no reader can see it change or vanish.
//
// Beyond the ranks themselves the snapshot carries the §4.5 rank-error
// certificate: the engines' convergence detection bounds the true
// fixpoint error of a converged solve by tolerance/(1-alpha) for the
// asynchronous lock-free engines (asyncToleranceBound in error.hpp) and
// tolerance*alpha/(1-alpha) for the barrier-based ones. The bound is
// computed AT PUBLISH TIME from the options the solve actually ran
// with, so a reader can turn "epoch 17" into "within 1e-7 of the exact
// ranks of the graph as of epoch 17" without knowing service config.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "pagerank/ppr.hpp"

namespace lfpr {

struct RankSnapshot {
  /// Publish sequence number: strictly increasing, starts at 0 for the
  /// pre-solve placeholder the service installs so readers never observe
  /// a null snapshot. Epoch 1 is the initial full solve.
  std::uint64_t epoch = 0;

  /// PageRank vector for the graph as of this epoch. Always sized to the
  /// service's vertex set (the placeholder holds uniform ranks).
  std::vector<double> ranks;

  /// Whether the solve behind this snapshot converged. The service only
  /// publishes converged solves after epoch 0, so readers normally see
  /// true; the epoch-0 placeholder reports false.
  bool converged = false;

  /// Iterations of the solve that produced these ranks.
  int iterations = 0;

  /// §4.5 certificate: ||ranks - exact||_inf <= toleranceBound for the
  /// graph at this epoch. Infinity on the epoch-0 placeholder.
  double toleranceBound = std::numeric_limits<double>::infinity();

  /// Cumulative ingest counters at publish (staleness accounting).
  std::uint64_t batchesApplied = 0;
  std::uint64_t edgesIngested = 0;

  /// The ranks are Monte-Carlo estimates (StepEngine::MonteCarlo):
  /// `toleranceBound` is then the *statistical* L1 scale
  /// mcL1ErrorBound(alpha, R) — expected error with a safety factor —
  /// NOT the worst-case §4.5 certificate carried by exact-engine epochs.
  bool monteCarlo = false;

  /// Personalized-PageRank index for this epoch (MonteCarlo epochs
  /// only; null otherwise). Immutable and shared — pprTopK queries
  /// answer from here without touching the live walk store.
  std::shared_ptr<const PprIndex> ppr;

  std::chrono::steady_clock::time_point publishedAt{};

  [[nodiscard]] std::size_t numVertices() const noexcept { return ranks.size(); }

  /// Rank of vertex v in this snapshot (0 when out of range, matching
  /// the "unknown vertex has no rank" reading).
  [[nodiscard]] double rank(VertexId v) const noexcept {
    return v < ranks.size() ? ranks[v] : 0.0;
  }

  /// Walk-store fingerprint of this epoch (MonteCarlo epochs with a PPR
  /// index; 0 otherwise). Pins the determinism contract across restarts:
  /// same (seed, batch schedule) => same fingerprint at the same epoch.
  /// An O(store) audit call: it hashes the epoch's immutable index on
  /// every call, and nothing on the publish or query path calls it.
  [[nodiscard]] std::uint64_t mcFingerprint() const noexcept {
    return ppr != nullptr ? ppr->fingerprint() : 0;
  }

  /// Shortest topK prefix a snapshot caches: the first query of an epoch
  /// sorts the top max(kMinTopPrefix, bit_ceil(k)) vertices (capped at
  /// n), so every later query up to that k is a copy.
  static constexpr std::size_t kMinTopPrefix = 64;

  /// The k highest-ranked vertices, descending (ties by vertex id).
  /// O(n log k) for the epoch's first query, or for the first query
  /// longer than the cached prefix; O(k) after that.
  [[nodiscard]] std::vector<std::pair<VertexId, double>> topK(
      std::size_t k) const {
    k = std::min(k, ranks.size());
    if (k == 0) return {};
    const TopPrefix* prefix = topPrefix_.load(std::memory_order_acquire);
    if (prefix == nullptr || prefix->entries.size() < k)
      prefix = installTopPrefix(k, prefix);
    return {prefix->entries.begin(),
            prefix->entries.begin() + static_cast<std::ptrdiff_t>(k)};
  }

  RankSnapshot() = default;
  /// Frees every topK prefix ever installed on this snapshot.
  ~RankSnapshot();
  RankSnapshot(const RankSnapshot&) = delete;
  RankSnapshot& operator=(const RankSnapshot&) = delete;

 private:
  /// Sorted top prefix of `ranks`. Immutable once installed; a longer
  /// prefix displaces it but keeps it chained, so a reader still copying
  /// from it is never left holding freed memory.
  struct TopPrefix {
    std::vector<std::pair<VertexId, double>> entries;
    const TopPrefix* displaced = nullptr;
  };

  /// Build a prefix of at least k entries and install it unless a racing
  /// reader already installed one that long; returns the installed one.
  /// `seen` is the caller's last load of topPrefix_.
  const TopPrefix* installTopPrefix(std::size_t k, const TopPrefix* seen) const;

  mutable std::atomic<const TopPrefix*> topPrefix_{nullptr};
};

}  // namespace lfpr
