// The arithmetic behind every number lfpr_e2e prints: the percentile
// rule, the guard that refuses a tail percentile the sample count cannot
// support, and the join from submitted batches to the published epoch
// that made each one visible. Header-only and free of library types, so
// lfpr_e2e_selftest checks exactly the code lfpr_e2e runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lfpr::e2e {

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Samples needed before percentile `p` (1..99) has kTailSamples beyond
/// it: 20 for p50, 100 for p90, 1000 for p99. Integer arithmetic, so
/// p99 needs exactly 1000 and not 1001.
inline std::size_t minSamplesFor(int p) {
  if (p < 1 || p > 99) throw std::invalid_argument("percentile out of 1..99");
  const auto beyond = static_cast<std::size_t>(100 - p);
  return (kTailSamples * 100 + beyond - 1) / beyond;
}

/// Nearest-rank percentile: the smallest sample with at least p% of all
/// samples at or below it (p50 of an even count is the lower middle).
inline double percentile(std::vector<double> samples, int p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 1 || p > 99) throw std::invalid_argument("percentile out of 1..99");
  const std::size_t n = samples.size();
  const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;  // ceil
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

/// Median of a handful of repetitions (set-up and restart timings). Not
/// guarded: each repetition is a whole measurement, not a latency sample.
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one workload run. addPercentile applies the tail
/// guard: a percentile the sample count cannot support is not computed,
/// and the metric is listed in `missing` with the reason instead.
struct MetricSet {
  std::vector<Metric> values;
  std::vector<std::string> missing;

  void add(std::string name, double value, std::string unit) {
    values.push_back({std::move(name), value, std::move(unit)});
  }

  void addPercentile(std::string name, const std::vector<double>& samples, int p,
                     std::string unit) {
    const std::size_t need = minSamplesFor(p);
    if (samples.size() < need) {
      missing.push_back(name + ": " + std::to_string(samples.size()) +
                        " samples, p" + std::to_string(p) + " needs " +
                        std::to_string(need));
      return;
    }
    add(std::move(name), percentile(samples, p), std::move(unit));
  }

  void addMax(std::string name, const std::vector<double>& samples, std::string unit) {
    if (samples.empty()) {
      missing.push_back(name + ": no samples");
      return;
    }
    add(std::move(name), *std::max_element(samples.begin(), samples.end()),
        std::move(unit));
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : values)
      if (m.name == name) return &m;
    return nullptr;
  }
};

/// What onPublish reports for one epoch: cumulative batches applied and
/// when the epoch became visible (ms on the run's clock).
struct PublishEvent {
  std::uint64_t epoch = 0;
  std::uint64_t batchesApplied = 0;
  double atMs = 0.0;
};

/// Batch i (0-based, in submission order — one writer, so also apply
/// order) becomes visible with the first epoch whose batchesApplied
/// exceeds i. Returns that epoch's publish time per batch, NaN for a
/// batch no epoch covers. Coalesced steps cover several batches at once;
/// a step that failed and was carried forward simply has no event, and
/// the next publish covers its batches. `publishes` must be in epoch
/// order with non-decreasing batchesApplied (throws otherwise).
inline std::vector<double> joinVisibility(std::size_t numBatches,
                                          std::span<const PublishEvent> publishes) {
  std::vector<double> visibleAt(numBatches, std::numeric_limits<double>::quiet_NaN());
  std::size_t next = 0;  // first batch not yet covered
  std::uint64_t last = 0;
  for (const PublishEvent& p : publishes) {
    if (p.batchesApplied < last)
      throw std::logic_error("publish events out of order: batchesApplied fell");
    last = p.batchesApplied;
    while (next < numBatches && next < p.batchesApplied) visibleAt[next++] = p.atMs;
  }
  return visibleAt;
}

/// One live step that applied batches: publish `publish` newly covered
/// batches [firstBatch, firstBatch + numBatches).
struct StepGroup {
  std::size_t publish = 0;
  std::size_t firstBatch = 0;
  std::size_t numBatches = 0;
};

/// The live step grouping, as the replay reproduces it: every publish
/// whose batchesApplied grew, clipped to the `numBatches` the writer sent.
inline std::vector<StepGroup> stepGroups(std::span<const PublishEvent> publishes,
                                         std::size_t numBatches) {
  std::vector<StepGroup> groups;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < publishes.size(); ++i) {
    const auto upTo = static_cast<std::size_t>(
        std::min<std::uint64_t>(publishes[i].batchesApplied, numBatches));
    if (upTo > covered) {
      groups.push_back({i, covered, upTo - covered});
      covered = upTo;
    }
  }
  return groups;
}

}  // namespace lfpr::e2e
