// Lock-free dynamic work distribution.
//
// This is the library's equivalent of the paper's `schedule(dynamic, chunk)`
// with `nowait` (Section 3.3.2): threads atomically grab the
// next chunk of indices from a global pool via fetch-add, so running
// threads stay load-balanced and no thread ever waits for another. A
// crashed or delayed thread simply stops taking chunks; the remainder of
// the pool is drained by the surviving threads — the property the paper's
// lock-free engines rely on.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace lfpr {

/// One round of dynamically-scheduled chunks over [0, numItems).
class ChunkCursor {
 public:
  ChunkCursor(std::size_t numItems, std::size_t chunkSize)
      : numItems_(numItems), chunkSize_(chunkSize == 0 ? 1 : chunkSize) {}

  /// Claim the next chunk. Returns false when the pool is exhausted.
  bool next(std::size_t& begin, std::size_t& end) noexcept {
    const std::size_t b = nextIndex_.fetch_add(chunkSize_, std::memory_order_relaxed);
    if (b >= numItems_) return false;
    begin = b;
    end = b + chunkSize_ < numItems_ ? b + chunkSize_ : numItems_;
    return true;
  }

  /// Reset for reuse. Caller must guarantee no concurrent next() calls
  /// (in barrier-based engines this runs between two barriers).
  void reset() noexcept { nextIndex_.store(0, std::memory_order_relaxed); }

  [[nodiscard]] std::size_t numItems() const noexcept { return numItems_; }
  [[nodiscard]] std::size_t chunkSize() const noexcept { return chunkSize_; }

 private:
  std::atomic<std::size_t> nextIndex_{0};
  std::size_t numItems_;
  std::size_t chunkSize_;
};

/// A sequence of chunk pools, one per iteration ("round") of an
/// asynchronous engine. Lock-free engines have no barrier between
/// iterations, so a fast thread may already be pulling chunks from round
/// i+1 while a slow thread still drains round i — each round needs its own
/// counter. Counters are cache-line padded to avoid false sharing.
class RoundCursorSet {
 public:
  RoundCursorSet(std::size_t numItems, std::size_t chunkSize, std::size_t numRounds)
      : numItems_(numItems),
        chunkSize_(chunkSize == 0 ? 1 : chunkSize),
        counters_(numRounds) {}

  /// Claim the next chunk of round `round`.
  bool next(std::size_t round, std::size_t& begin, std::size_t& end) noexcept {
    const std::size_t b =
        counters_[round].value.fetch_add(chunkSize_, std::memory_order_relaxed);
    if (b >= numItems_) return false;
    begin = b;
    end = b + chunkSize_ < numItems_ ? b + chunkSize_ : numItems_;
    return true;
  }

  [[nodiscard]] std::size_t numRounds() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t numItems() const noexcept { return numItems_; }

 private:
  struct alignas(64) Padded {
    std::atomic<std::size_t> value{0};
  };

  std::size_t numItems_;
  std::size_t chunkSize_;
  std::vector<Padded> counters_;
};

}  // namespace lfpr
