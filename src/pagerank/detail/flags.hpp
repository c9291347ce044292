// The shared release-mark primitive of the lock-free termination
// protocol (see the protocol comment in lf_iterate.cpp). Used by the
// marking phase, the pull iteration core and DeltaPush's activations so
// the load-bearing properties live in exactly one place:
//
//  * both stores are release RMWs (fetchOr) — plain stores would break
//    the release sequences the acquire clears synchronize through, and
//    skipping the RMW when the flag already reads 1 would let a marker's
//    rank publish stay invisible to a concurrent clear;
//  * the vertex flag is marked BEFORE the chunk flag — the order
//    clearChunkFlagAndReverify's acquire-rescan relies on.
#pragma once

#include <atomic>
#include <cstddef>

#include "pagerank/atomics.hpp"

namespace lfpr::detail {

/// Mark vertex w "not yet converged", plus its owning chunk when
/// per-chunk flags are in use.
inline void markVertexUnconverged(AtomicU8Vector& notConverged,
                                  AtomicU8Vector* chunkFlags,
                                  std::size_t chunkSize, std::size_t w) {
  notConverged.fetchOr(w, 1, std::memory_order_release);
  if (chunkFlags != nullptr)
    chunkFlags->fetchOr(w / chunkSize, 1, std::memory_order_release);
}

}  // namespace lfpr::detail
