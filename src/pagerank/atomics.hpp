// Atomic vectors backing the lock-free engines.
//
// The paper's LF implementations share a single rank vector and several
// 8-bit flag vectors (VA affected, C checked, RC not-yet-converged)
// between independently running threads. In C++ the concurrent plain
// loads/stores would be data races, so we wrap std::atomic with relaxed
// ordering — on x86-64 this compiles to the same mov instructions while
// keeping behaviour defined. Accessors taking stronger orders exist for
// the places that need them: the C "checked" helping flag (which
// publishes the marking writes that precede it) and the RC/chunk
// converged flags, whose release-marking / acquire-clearing protocol is
// documented at fetchOr() below and in lf_iterate.cpp.
//
// The convergence scans (allZero / allZeroFrom / countNonZero) are pure
// relaxed reads with no ordering role in that protocol, so they read
// eight flags per 64-bit load (PR 2 RMW diet, item c in lf_iterate.cpp);
// every flag *mutation* remains an individually-addressed byte-sized
// atomic, so the marking/clearing memory-order story is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace lfpr {

class AtomicF64Vector {
 public:
  AtomicF64Vector(std::size_t n, double init) : v_(n) { fill(init); }

  explicit AtomicF64Vector(std::span<const double> init) : v_(init.size()) {
    for (std::size_t i = 0; i < init.size(); ++i)
      v_[i].store(init[i], std::memory_order_relaxed);
  }

  [[nodiscard]] double load(std::size_t i) const noexcept {
    return v_[i].load(std::memory_order_relaxed);
  }
  void store(std::size_t i, double x) noexcept {
    v_[i].store(x, std::memory_order_relaxed);
  }

  /// Store x and return the value it replaced. The lock-free engines
  /// publish every rank update through this RMW so the update's true jump
  /// — against the value actually overwritten, not against a possibly
  /// stale earlier read — is what convergence decisions are made from: a
  /// delayed thread rolling a refined rank back to a stale one observes a
  /// large jump and re-marks the vertex (see lf_iterate.cpp).
  double exchange(std::size_t i, double x) noexcept {
    return v_[i].exchange(x, std::memory_order_relaxed);
  }

  /// Atomically add x and return the value held *before* the add (C++20
  /// floating-point fetch_add — one lock-free RMW, not a hand-rolled CAS
  /// loop). This is the delta-push engine's residual accumulator: pushes
  /// from concurrent threads can never lose mass, and the returned
  /// before-value is what the activation-threshold crossing test is made
  /// from (detail/delta_push.cpp, crossedThreshold).
  double fetchAdd(std::size_t i, double x) noexcept {
    return v_[i].fetch_add(x, std::memory_order_relaxed);
  }

  void fill(double x) noexcept {
    for (auto& a : v_) a.store(x, std::memory_order_relaxed);
  }

  /// Overwrite from a plain vector of the same length (seeding a
  /// persistent engine state between resumable steps — engine_step.hpp).
  /// Caller must guarantee no concurrent accessors.
  void assign(std::span<const double> init) noexcept {
    for (std::size_t i = 0; i < init.size() && i < v_.size(); ++i)
      v_[i].store(init[i], std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }

  [[nodiscard]] std::vector<double> toVector() const {
    std::vector<double> out(v_.size());
    for (std::size_t i = 0; i < v_.size(); ++i)
      out[i] = v_[i].load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::vector<std::atomic<double>> v_;
};

class AtomicU8Vector {
 public:
  AtomicU8Vector(std::size_t n, std::uint8_t init) : v_(n) { fill(init); }

  [[nodiscard]] std::uint8_t load(
      std::size_t i, std::memory_order order = std::memory_order_relaxed) const noexcept {
    return v_[i].load(order);
  }
  void store(std::size_t i, std::uint8_t x,
             std::memory_order order = std::memory_order_relaxed) noexcept {
    v_[i].store(x, order);
  }

  std::uint8_t exchange(std::size_t i, std::uint8_t x,
                        std::memory_order order = std::memory_order_relaxed) noexcept {
    return v_[i].exchange(x, order);
  }

  /// RMW mark. The lock-free engines set convergence flags exclusively via
  /// RMW operations: under C++20 a release sequence is continued only by
  /// RMWs, so keeping every concurrent flag mutation an RMW guarantees
  /// that an acquire RMW reading any value of the flag synchronizes with
  /// *every* release-marking thread earlier in the modification order —
  /// the property the clear-then-reverify termination protocol relies on
  /// (see lf_iterate.cpp).
  std::uint8_t fetchOr(std::size_t i, std::uint8_t x,
                       std::memory_order order = std::memory_order_relaxed) noexcept {
    return v_[i].fetch_or(x, order);
  }

  void fill(std::uint8_t x) noexcept {
    for (auto& a : v_) a.store(x, std::memory_order_relaxed);
  }

  /// True iff every element is zero (the LF engines' convergence test:
  /// "RC[v] = 0 for all v"). Scans eight flags per 64-bit load — the
  /// scans were always relaxed reads with no ordering role (the clears
  /// and marks carry the protocol), so the wide load changes bandwidth,
  /// not semantics; see the RMW-diet note in lf_iterate.cpp.
  [[nodiscard]] bool allZero() const noexcept {
    return findNonZero(0, v_.size()) == v_.size();
  }

  /// allZero() with a resume hint: starts scanning at `hint` (where the
  /// last scan found a non-zero) and wraps. Unconverged vertices cluster,
  /// so per-round convergence checks become ~O(1) until the final round.
  [[nodiscard]] bool allZeroFrom(std::size_t& hint) const noexcept {
    const std::size_t n = v_.size();
    if (n == 0) return true;
    if (hint >= n) hint = 0;
    std::size_t i = findNonZero(hint, n);
    if (i == n) {
      i = findNonZero(0, hint);
      if (i == hint) return true;
    }
    hint = i;
    return false;
  }

  /// Index of the first non-zero flag in [begin, end), or end if none —
  /// the word-wide scan behind allZero, exposed so DeltaPush partition
  /// reconciles cost one relaxed load per eight flags instead of a
  /// per-vertex byte loop (same monotone-read semantics as the scans).
  [[nodiscard]] std::size_t firstNonZero(std::size_t begin,
                                         std::size_t end) const noexcept {
    const std::size_t e = end < v_.size() ? end : v_.size();
    if (begin >= e) return end;
    const std::size_t i = findNonZero(begin, e);
    return i == e ? end : i;
  }

  [[nodiscard]] std::uint64_t countNonZero() const noexcept {
    const std::size_t n = v_.size();
    std::uint64_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      if (wordAt(i) == 0) continue;
      for (std::size_t k = i; k < i + 8; ++k)
        count += v_[k].load(std::memory_order_relaxed) != 0 ? 1 : 0;
    }
    for (; i < n; ++i)
      count += v_[i].load(std::memory_order_relaxed) != 0 ? 1 : 0;
    return count;
  }

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }

 private:
  static_assert(sizeof(std::atomic<std::uint8_t>) == 1 &&
                    alignof(std::atomic<std::uint8_t>) == 1,
                "word-at-a-time scan assumes byte-sized atomics");

  /// Eight flags in one relaxed 64-bit load. `i` must be a multiple of 8;
  /// the vector's allocation is at least 8-byte aligned (operator new),
  /// so index alignment implies memory alignment. The cast reads the
  /// object representation of eight adjacent atomic bytes — accepted by
  /// every supported compiler for lock-free byte atomics, and an atomic
  /// access, so sanitizers see no data race; a portable per-byte loop
  /// backs other toolchains.
  [[nodiscard]] std::uint64_t wordAt(std::size_t i) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    return __atomic_load_n(reinterpret_cast<const std::uint64_t*>(v_.data() + i),
                           __ATOMIC_RELAXED);
#else
    std::uint64_t w = 0;
    for (std::size_t k = 0; k < 8; ++k)
      w |= static_cast<std::uint64_t>(v_[i + k].load(std::memory_order_relaxed))
           << (8 * k);
    return w;
#endif
  }

  /// Index of the first non-zero flag in [b, e), or e if none. Byte steps
  /// to the first word boundary, then words. A word that reads non-zero
  /// is re-checked byte-wise; if a concurrent clear emptied it in
  /// between, the scan just continues (same monotone-read semantics as
  /// the byte loop it replaces).
  [[nodiscard]] std::size_t findNonZero(std::size_t b, std::size_t e) const noexcept {
    std::size_t i = b;
    for (; i < e && (i & 7) != 0; ++i)
      if (v_[i].load(std::memory_order_relaxed) != 0) return i;
    for (; i + 8 <= e; i += 8) {
      if (wordAt(i) == 0) continue;
      for (std::size_t k = i; k < i + 8; ++k)
        if (v_[k].load(std::memory_order_relaxed) != 0) return k;
    }
    for (; i < e; ++i)
      if (v_[i].load(std::memory_order_relaxed) != 0) return i;
    return e;
  }

  std::vector<std::atomic<std::uint8_t>> v_;
};

}  // namespace lfpr
