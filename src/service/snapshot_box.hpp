// Single-publisher epoch-based-reclamation snapshot cell (the service
// layer's RCU). The RankService's ingest thread publishes immutable
// RankSnapshots; any number of reader threads acquire them wait-free on
// the fast path. The two guarantees the service API rests on:
//
//   consistency   a reader's SnapshotView pins ONE snapshot pointer; all
//                 queries through the view (ranks, rank(v), topK) answer
//                 against that one immutable object. No torn reads: the
//                 publish is a single atomic pointer exchange and the
//                 pointee's facts are never mutated after publish. The
//                 one write after publish is RankSnapshot's install-once
//                 topK prefix: a CAS on an atomic pointer to an
//                 immutable prefix, freed with the snapshot itself once
//                 its grace period has passed.
//
//   reclamation   a replaced snapshot is retired, not freed; it is
//                 deleted only after a grace period — once every reader
//                 slot is quiescent or has announced an era later than
//                 the retirement. A reader that acquired before a
//                 publish keeps its (older) snapshot valid for as long
//                 as it holds the view.
//
// Memory-ordering argument (the part that makes the grace period sound):
//
//   reader acquire:    announce <- era.load(acquire)      (relaxed store)
//                      atomic_thread_fence(seq_cst)
//                      snap <- current.load(acquire)
//   publisher publish: old <- current.exchange(new, acq_rel)
//                      e0 <- era.fetch_add(1, acq_rel)    (retire (old,e0))
//                      atomic_thread_fence(seq_cst)
//                      scan announces; free (old,e0) iff every pinned
//                      announce a satisfies a > e0
//
// Direction 1 (announce later than retirement => reader cannot hold
// old): a reader whose announce is a >= e0+1 acquire-loaded an era value
// written by the fetch_add that retired old (or a later RMW in its
// release sequence), so it synchronizes-with that publish; its
// program-order-later current.load then observes the exchange and reads
// `new` or newer — never `old`. Direction 2 (publisher missed the
// announce): the seq_cst fences run Dekker's protocol on the
// (announce, current) pair — if the publisher's scan did not observe a
// reader's announce, the publisher's fence precedes the reader's fence
// in the fence total order, so the reader's current.load observes the
// exchange and holds `new`, and freeing `old` is again safe. Either way
// no snapshot is freed while a view can still dereference it.
//
// Reader slots are per-(thread, box): each thread lazily registers one
// slot per box (mutex-guarded registration, never on the re-acquire
// fast path) and caches the mapping thread-locally keyed by the box's
// monotonically-unique id — ids never recur, so a stale cache entry for
// a destroyed box can never be looked up, let alone dereferenced.
// Nested acquires on one thread reuse the pinned era via a slot-local
// depth counter (owner-thread-only, non-atomic).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "service/rank_snapshot.hpp"

namespace lfpr {

class SnapshotBox;

namespace detail {

/// One thread's pin state against one SnapshotBox.
struct SnapshotReaderSlot {
  /// Era pinned by this slot's thread; 0 = quiescent. Written only by
  /// the owning thread, read by the publisher's grace-period scan.
  /// Cache-line aligned so concurrent readers' announces don't share.
  alignas(64) std::atomic<std::uint64_t> announced{0};
  /// Nested-acquire depth. Owner-thread-only.
  std::uint32_t depth = 0;
};

}  // namespace detail

/// RAII pin on one published snapshot. Movable, not copyable. All reads
/// through one view are answered by the same immutable snapshot.
class SnapshotView {
 public:
  SnapshotView() = default;
  SnapshotView(SnapshotView&& other) noexcept
      : box_(other.box_), slot_(other.slot_), snap_(other.snap_) {
    other.box_ = nullptr;
    other.slot_ = nullptr;
    other.snap_ = nullptr;
  }
  SnapshotView& operator=(SnapshotView&& other) noexcept {
    if (this != &other) {
      reset();
      box_ = other.box_;
      slot_ = other.slot_;
      snap_ = other.snap_;
      other.box_ = nullptr;
      other.slot_ = nullptr;
      other.snap_ = nullptr;
    }
    return *this;
  }
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;
  ~SnapshotView() { reset(); }

  /// Unpin early (no-op on an empty view).
  void reset() noexcept;

  [[nodiscard]] const RankSnapshot& operator*() const noexcept { return *snap_; }
  [[nodiscard]] const RankSnapshot* operator->() const noexcept { return snap_; }
  [[nodiscard]] const RankSnapshot* get() const noexcept { return snap_; }
  explicit operator bool() const noexcept { return snap_ != nullptr; }

 private:
  friend class SnapshotBox;
  SnapshotView(const SnapshotBox* box, detail::SnapshotReaderSlot* slot,
               const RankSnapshot* snap) noexcept
      : box_(box), slot_(slot), snap_(snap) {}

  const SnapshotBox* box_ = nullptr;
  detail::SnapshotReaderSlot* slot_ = nullptr;
  const RankSnapshot* snap_ = nullptr;
};

class SnapshotBox {
 public:
  /// `initial` may be null; acquire() then returns an empty view until
  /// the first publish. The RankService always seeds a placeholder so
  /// its readers never see null.
  explicit SnapshotBox(std::unique_ptr<const RankSnapshot> initial = nullptr);

  /// Caller must guarantee no live views and no concurrent publish.
  ~SnapshotBox();

  SnapshotBox(const SnapshotBox&) = delete;
  SnapshotBox& operator=(const SnapshotBox&) = delete;

  /// Pin and return the current snapshot. Wait-free after this thread's
  /// slot exists (one mutex-guarded registration per thread per box).
  [[nodiscard]] SnapshotView acquire() const;

  /// Replace the current snapshot. SINGLE PUBLISHER: at most one thread
  /// may ever call publish on a box. Retires the replaced snapshot and
  /// frees whatever earlier retirees have cleared their grace period.
  void publish(std::unique_ptr<const RankSnapshot> snap);

  /// Snapshots retired but not yet reclaimed (grace period still open).
  /// Exposed so tests can prove reclamation actually happens.
  [[nodiscard]] std::size_t retiredCount() const noexcept {
    return retiredCount_.load(std::memory_order_relaxed);
  }

  /// Total snapshots freed after their grace period.
  [[nodiscard]] std::uint64_t reclaimedCount() const noexcept {
    return reclaimedCount_.load(std::memory_order_relaxed);
  }

 private:
  friend class SnapshotView;
  using ReaderSlot = detail::SnapshotReaderSlot;

  ReaderSlot* slotForThisThread() const;
  void release(ReaderSlot* slot) const noexcept;
  void reclaim();

  struct Retired {
    const RankSnapshot* ptr;
    std::uint64_t era;  // era_ value at retirement (pre-increment)
  };

  const std::uint64_t id_;  // globally unique, never reused
  std::atomic<const RankSnapshot*> current_{nullptr};
  /// Grace-period clock. Starts at 1 so a slot announce of 0 always
  /// means "quiescent". Incremented once per publish.
  std::atomic<std::uint64_t> era_{1};

  mutable std::mutex slotsMutex_;
  /// deque: element addresses are stable across growth; slots are never
  /// removed (a thread that exits simply leaves its slot quiescent).
  mutable std::deque<ReaderSlot> slots_;

  /// Publisher-owned, ordered by era ascending.
  std::vector<Retired> retired_;
  std::atomic<std::size_t> retiredCount_{0};
  std::atomic<std::uint64_t> reclaimedCount_{0};
};

}  // namespace lfpr
