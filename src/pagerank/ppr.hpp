// Personalized-PageRank query surface for the Monte Carlo walk engine
// (Bahmani et al., "Fast Incremental and Personalized PageRank"): the
// engine keeps R geometric-length random-walk segments rooted at every
// vertex, and the personalized score of v as seen from root r is
//
//     ppr_r(v) ~= (1 - alpha) * visits_r(v) / R
//
// where visits_r(v) counts how often the R walks rooted at r step on v.
// A PprIndex is an immutable per-epoch flattening of the walk store
// (root-major visit log), published through the service SnapshotBox the
// same way rank vectors are — readers never touch the live store.
//
// Every score carries a Monte-Carlo error bound (error.hpp,
// mcPprErrorBound). Unlike the deterministic Section 4.5 certificates
// on the exact engines, this bound is *statistical* — an expected-error
// scale with a safety factor, not a worst-case guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace lfpr {

/// One personalized-PageRank result entry for a (root, vertex) pair.
struct PprEntry {
  VertexId vertex = 0;
  /// Monte-Carlo estimate (1 - alpha) * visits / R.
  double score = 0.0;
  /// Statistical error scale for `score` (mcPprErrorBound) — expected
  /// error with a safety factor, NOT a worst-case certificate.
  double errorBound = 0.0;
};

/// Immutable root-major visit log snapshot of a Monte Carlo walk store.
/// Vertices visited by the R walks rooted at r occupy
/// visitLog[offsets[r] .. offsets[r+1]), duplicates counting multiple
/// visits. Walk ids are root-major too (walk w belongs to root w / R), so
/// the log holds every walk back to back in walk-id order, walk w being
/// walkLengths[w] entries long. Built once per published epoch
/// (detail::buildPprIndex) and shared read-only by any number of query
/// threads.
struct PprIndex {
  double alpha = 0.85;
  int walksPerVertex = 0;
  int maxWalkLength = 0;
  std::uint64_t seed = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> offsets;  ///< numRoots + 1 entries.
  std::vector<VertexId> visitLog;
  std::vector<std::uint16_t> walkLengths;  ///< One per walk, walk-id order.

  [[nodiscard]] std::size_t numRoots() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Top-k personalized scores as seen from `root`, sorted by
  /// descending score (ties by ascending vertex id). Returns fewer
  /// than k entries when fewer than k distinct vertices were visited,
  /// and an empty vector for an out-of-range root.
  [[nodiscard]] std::vector<PprEntry> topK(VertexId root, std::size_t k) const;

  /// The walk-store fingerprint of the store this index was built from,
  /// bit-identical to detail::MonteCarloState::fingerprint() at build
  /// time. O(store): an audit call, computed on every call and never on
  /// the publish or query path.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

}  // namespace lfpr
