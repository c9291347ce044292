// Per-thread work rings for the one engine that finds its work by
// enqueueing it: DeltaPush activations (vertices whose residual crossed
// the threshold, delta_push.cpp). The pull engines do not use them; they
// find their work with the dense chunked sweep (chunk_cursor.hpp),
// filtered by the affected / notConverged flags. Monte Carlo repair does
// not either: its per-thread claim lists already name every walk to
// repair, and workers take chunks of them (monte_carlo.cpp).
//
//   * vertex ids are partitioned into contiguous ownership blocks, one
//     per worker thread;
//   * whoever activates an id also enqueues it onto its owner's ring
//     (deduplicated through a per-id `queued` flag, so each id has at
//     most one in-flight ring entry);
//   * the owner drains its own ring; under fault injection, survivors
//     steal the entries a crashed owner left behind.
//
// The rings are an *accelerator*, never the authority: the notConverged
// flags of the termination protocol (lf_iterate.cpp, delta_push.cpp)
// still decide convergence, and an owner whose ring runs dry reconciles
// its partition against the flags before declaring itself quiescent. A
// lost enqueue (crashed marker, the benign pop/queued race below, or a
// full ring) therefore delays an id at worst until that reconcile — it
// can never fake convergence.
//
// WorkRing is a bounded MPMC ring in the classic per-cell sequence-number
// style: each cell carries an epoch that producers and consumers validate
// with acquire/release before touching the payload, which is exactly the
// hand-off point where DeltaPush keeps its protocol-bearing ordering
// (see the publish-diet note in delta_push.cpp). Capacity is sized to
// the ownership block, and the `queued` dedup guarantees at most one live
// entry per owned id, so a push onto the owner's ring cannot fail in
// practice; tryPush still reports overflow and enqueue() falls back to
// flags-only marking for safety.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "graph/types.hpp"
#include "pagerank/atomics.hpp"

namespace lfpr {

/// Bounded MPMC ring of vertex ids with per-cell epoch validation
/// (Vyukov-style). Producers and consumers never block: a push fails only
/// when the ring is full, a pop only when it is empty.
class WorkRing {
 public:
  explicit WorkRing(std::size_t minCapacity)
      : cells_(roundUpPow2(minCapacity)), mask_(cells_.size() - 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cells_[i].epoch.store(i, std::memory_order_relaxed);
  }

  WorkRing(const WorkRing&) = delete;
  WorkRing& operator=(const WorkRing&) = delete;

  /// Publish v at the tail. The release store of the cell epoch is the
  /// producer half of the hand-off: a consumer that validates the epoch
  /// with acquire observes every write (rank publishes included) that
  /// preceded the push.
  bool tryPush(VertexId v) noexcept {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t epoch = cell.epoch.load(std::memory_order_acquire);
      const auto d = static_cast<std::ptrdiff_t>(epoch) - static_cast<std::ptrdiff_t>(pos);
      if (d == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = v;
          cell.epoch.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (d < 0) {
        return false;  // full: the cell still holds an unconsumed entry
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Claim the entry at the head; false when the ring is empty.
  bool tryPop(VertexId& v) noexcept {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t epoch = cell.epoch.load(std::memory_order_acquire);
      const auto d =
          static_cast<std::ptrdiff_t>(epoch) - static_cast<std::ptrdiff_t>(pos + 1);
      if (d == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          v = cell.value;
          cell.epoch.store(pos + cells_.size(), std::memory_order_release);
          return true;
        }
      } else if (d < 0) {
        return false;  // empty (or the producer has claimed but not published)
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Approximate emptiness (exact once producers are quiescent).
  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) >=
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

  /// Successful pushes so far: the tail only advances on one.
  [[nodiscard]] std::size_t pushed() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> epoch{0};
    VertexId value = 0;
  };

  static std::size_t roundUpPow2(std::size_t x) noexcept {
    std::size_t p = 1;
    while (p < x) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<Cell> cells_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

/// Per-thread work rings plus the ownership map and the per-id dedup
/// flags. One instance per solve, shared by all workers.
class WorklistScheduler {
 public:
  WorklistScheduler(std::size_t numVertices, int numThreads)
      : n_(numVertices),
        threads_(numThreads < 1 ? 1 : numThreads),
        per_((numVertices + static_cast<std::size_t>(threads_) - 1) /
             static_cast<std::size_t>(threads_)),
        queued_(numVertices, 0) {
    if (per_ == 0) per_ = 1;
    for (int t = 0; t < threads_; ++t) {
      const std::size_t owned = ownedEnd(t) - ownedBegin(t);
      rings_.emplace_back(owned + 1);
    }
  }

  [[nodiscard]] int numThreads() const noexcept { return threads_; }

  [[nodiscard]] int owner(std::size_t v) const noexcept {
    const auto t = static_cast<int>(v / per_);
    return t < threads_ ? t : threads_ - 1;
  }
  [[nodiscard]] std::size_t ownedBegin(int tid) const noexcept {
    const std::size_t b = static_cast<std::size_t>(tid) * per_;
    return b < n_ ? b : n_;
  }
  [[nodiscard]] std::size_t ownedEnd(int tid) const noexcept {
    if (tid == threads_ - 1) return n_;
    const std::size_t e = (static_cast<std::size_t>(tid) + 1) * per_;
    return e < n_ ? e : n_;
  }

  /// Hand a marked vertex to its owner. Deduplicated: at most one
  /// in-flight ring entry per vertex, so the owner-sized rings cannot
  /// overflow under the protocol; if a push is ever refused anyway the
  /// vertex stays flags-only and the owner's reconcile sweep finds it.
  void enqueue(std::size_t v) noexcept {
    if (queued_.fetchOr(v, 1, std::memory_order_relaxed) != 0) return;
    if (!rings_[static_cast<std::size_t>(owner(v))].tryPush(
            static_cast<VertexId>(v)))
      queued_.store(v, 0);
  }

  /// Pop from this thread's own ring. Clears the dedup flag *before* the
  /// caller processes the vertex, so a concurrent re-mark re-enqueues it.
  /// (A marker can still read the stale `queued` byte and skip its push;
  /// the vertex then sits flags-only until the owner reconciles — benign,
  /// because the flags stay authoritative.)
  bool tryPop(int tid, VertexId& v) noexcept {
    if (!rings_[static_cast<std::size_t>(tid)].tryPop(v)) return false;
    queued_.store(v, 0);
    return true;
  }

  /// Drain any ring (crash recovery under fault injection: an orphaned
  /// ring's owner is gone, so survivors steal its entries).
  bool trySteal(int tid, VertexId& v) noexcept {
    for (int i = 0; i < threads_; ++i) {
      const int t = (tid + i) % threads_;
      if (rings_[static_cast<std::size_t>(t)].tryPop(v)) {
        queued_.store(v, 0);
        return true;
      }
    }
    return false;
  }

  /// Total successful ring pushes, summed from the rings' tails
  /// (protocol-cost diagnostics; exact once producers are quiescent).
  [[nodiscard]] std::uint64_t pushes() const noexcept {
    std::uint64_t total = 0;
    for (const WorkRing& ring : rings_) total += ring.pushed();
    return total;
  }

  /// DeltaPush activation rule: a push marks its target only when the
  /// residual fetch-add moved |residual| from at-or-below the threshold
  /// to above it. An add on an already-above residual needs no new
  /// activation (the crossing that got it there marked the vertex,
  /// and any clear in between reverifies against the current value —
  /// clear-then-reverify, lf_iterate.cpp part 1); an add that lands
  /// at-or-below needs none either.
  [[nodiscard]] static bool crossedThreshold(double before, double after,
                                             double threshold) noexcept {
    return !(before > threshold) && !(before < -threshold) &&
           (after > threshold || after < -threshold);
  }

  /// Global progress heartbeat: workers bump it whenever they process
  /// vertices. A personally-quiescent worker that sees it advance across
  /// a yield leaves the remaining dirt to the thread working on it —
  /// helping a *healthy* owner means two publishers fighting over one
  /// partition at context-switch granularity, each quantum boundary
  /// re-injecting a stale publish, which can sustain the frontier
  /// indefinitely. Only stalled (crashed / exited / capped-out) dirt is
  /// taken over.
  void noteProgress(std::uint64_t processed) noexcept {
    progress_.fetch_add(processed, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t n_;
  int threads_;
  std::size_t per_;
  AtomicU8Vector queued_;
  std::deque<WorkRing> rings_;
  alignas(64) std::atomic<std::uint64_t> progress_{0};
};

}  // namespace lfpr
