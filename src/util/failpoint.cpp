#include "util/failpoint.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace lfpr {

FailPointAbort::FailPointAbort(std::string point)
    : point_(std::move(point)),
      what_("fail point '" + point_ + "' fired (simulated process kill)") {}

const char* FailPointAbort::what() const noexcept { return what_.c_str(); }

struct FailPoints::Impl {
  struct PointState {
    std::uint64_t hits = 0;
    // Kill arm: fire when hits reaches killAt (0 = not armed).
    std::uint64_t killAt = 0;
    // Errno arm: report err for the next errnoTimes executions.
    int err = 0;
    std::uint64_t errnoTimes = 0;
    std::size_t seenOrder = 0;  // 1-based first-execution order, 0 = unseen
  };

  mutable std::mutex mutex;
  std::unordered_map<std::string, PointState> points;
  bool killed = false;
  std::size_t nextSeen = 1;

  PointState& at(const std::string& point) { return points[point]; }

  void noteSeen(PointState& s) {
    if (s.seenOrder == 0) s.seenOrder = nextSeen++;
  }
};

FailPoints::FailPoints() : impl_(new Impl) {}

FailPoints& FailPoints::instance() {
  static FailPoints f;
  return f;
}

void FailPoints::armKill(const std::string& point, std::uint64_t hit) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->at(point).killAt = hit == 0 ? 1 : hit;
}

void FailPoints::armErrno(const std::string& point, int err,
                          std::uint64_t times) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& s = impl_->at(point);
  s.err = err;
  s.errnoTimes = times;
}

void FailPoints::disarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->points.clear();
  impl_->killed = false;
  impl_->nextSeen = 1;
}

bool FailPoints::killed() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->killed;
}

std::vector<std::string> FailPoints::pointsSeen() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> seen;
  for (const auto& [name, s] : impl_->points)
    if (s.seenOrder != 0) seen.push_back(name);
  std::sort(seen.begin(), seen.end(),
            [this](const std::string& a, const std::string& b) {
              return impl_->points.at(a).seenOrder <
                     impl_->points.at(b).seenOrder;
            });
  return seen;
}

std::uint64_t FailPoints::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->points.find(point);
  return it == impl_->points.end() ? 0 : it->second.hits;
}

void FailPoints::onHit(const char* point) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->killed) throw FailPointAbort(point);
  auto& s = impl_->at(point);
  impl_->noteSeen(s);
  ++s.hits;
  if (s.killAt != 0 && s.hits >= s.killAt) {
    impl_->killed = true;
    throw FailPointAbort(point);
  }
}

int FailPoints::consumeErrno(const char* point) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->killed) throw FailPointAbort(point);
  auto& s = impl_->at(point);
  if (s.errnoTimes == 0) return 0;
  --s.errnoTimes;
  return s.err;
}

}  // namespace lfpr
