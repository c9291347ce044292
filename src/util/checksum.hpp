// Word-wide FNV-1a checksum shared by the five on-disk formats framed
// by util/framed_file.hpp. Corruption detection only — not cryptographic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace lfpr {

/// 64-bit FNV-1a folding 8 input bytes per multiply (tail zero-padded, so
/// the value is independent of how the input was chunked only if chunks
/// are 8-byte multiples — Checksum64 feeds full words across chunks).
class Checksum64 {
 public:
  /// Absorb bytes. Chunks may have any length; the stream position is
  /// carried so feeding the same bytes in different chunkings yields the
  /// same value.
  void update(std::span<const std::byte> bytes) noexcept {
    const std::byte* p = bytes.data();
    std::size_t n = bytes.size();
    // Fill a pending partial word first.
    while (pending_ != 0 && n != 0) {
      word_ |= static_cast<std::uint64_t>(std::to_integer<unsigned>(*p))
               << (8 * pending_);
      pending_ = (pending_ + 1) % 8;
      if (pending_ == 0) absorb(word_), word_ = 0;
      ++p;
      --n;
    }
    while (n >= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      absorb(w);
      p += 8;
      n -= 8;
    }
    while (n != 0) {
      word_ |= static_cast<std::uint64_t>(std::to_integer<unsigned>(*p))
               << (8 * pending_);
      ++pending_;
      ++p;
      --n;
    }
  }

  /// Final value (tail word zero-padded). May be called repeatedly.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t h = h_;
    if (pending_ != 0) {
      h ^= word_;
      h *= kPrime;
    }
    return h;
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  void absorb(std::uint64_t w) noexcept {
    h_ ^= w;
    h_ *= kPrime;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t word_ = 0;
  unsigned pending_ = 0;
};

inline std::uint64_t checksum64(std::span<const std::byte> bytes) noexcept {
  Checksum64 c;
  c.update(bytes);
  return c.value();
}

}  // namespace lfpr
