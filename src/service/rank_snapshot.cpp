#include "service/rank_snapshot.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <ranges>

namespace lfpr {

RankSnapshot::~RankSnapshot() {
  const TopPrefix* prefix = topPrefix_.load(std::memory_order_acquire);
  while (prefix != nullptr) {
    const TopPrefix* displaced = prefix->displaced;
    delete prefix;
    prefix = displaced;
  }
}

const RankSnapshot::TopPrefix* RankSnapshot::installTopPrefix(
    std::size_t k, const TopPrefix* seen) const {
  using Entry = std::pair<VertexId, double>;
  // A strict total order (rank descending, then vertex id), so the top
  // set and its order are exactly what a full partial_sort would give.
  const auto better = [](const Entry& a, const Entry& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  const std::size_t n = ranks.size();
  const std::size_t len = std::min(n, std::max(kMinTopPrefix, std::bit_ceil(k)));

  // One pass with a bounded heap of `len` entries (partial_sort_copy),
  // not an n-pair sort.
  auto fresh = std::make_unique<TopPrefix>();
  fresh->entries.resize(len);
  const auto entry = [this](std::size_t v) {
    return Entry{static_cast<VertexId>(v), ranks[v]};
  };
  std::ranges::partial_sort_copy(
      std::views::iota(std::size_t{0}, n) | std::views::transform(entry),
      fresh->entries, better);

  while (seen == nullptr || seen->entries.size() < k) {
    fresh->displaced = seen;
    if (topPrefix_.compare_exchange_weak(seen, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      return fresh.release();
  }
  return seen;  // a racing reader installed one long enough; drop ours
}

}  // namespace lfpr
