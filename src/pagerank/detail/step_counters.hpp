// Per-thread protocol-cost counters of one lock-free step. Every worker
// counts into its own cache-line-padded slot with plain increments, so
// counting adds no shared cache line and no atomic to the hot paths; the
// step sums the slots once, after the join. A worker that crashes
// mid-step leaves its counts in its slot, so they are still reported.
#pragma once

#include <cstdint>
#include <vector>

#include "pagerank/options.hpp"

namespace lfpr::detail {

struct StepCounters : ProtocolStats {
  std::uint64_t rankUpdates = 0;
};

/// One slot per team thread plus one for the post-join sequential passes
/// (finish pass, seed repair), which run on the engine's calling thread.
class StepCounterSlots {
 public:
  explicit StepCounterSlots(int numThreads)
      : slots_(static_cast<std::size_t>(numThreads) + 1) {}

  StepCounters& operator[](int tid) noexcept {
    return slots_[static_cast<std::size_t>(tid)];
  }
  StepCounters& sequential() noexcept { return slots_.back(); }

  /// Sum the slots into result.rankUpdates and result.protocolStats
  /// (after the join).
  void reduceInto(PageRankResult& result) const noexcept {
    for (const StepCounters& c : slots_) {
      result.rankUpdates += c.rankUpdates;
      result.protocolStats += c;
    }
  }

 private:
  struct alignas(64) Slot : StepCounters {};
  std::vector<Slot> slots_;
};

}  // namespace lfpr::detail
