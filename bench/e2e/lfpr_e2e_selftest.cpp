// Self-test of the arithmetic in e2e_stats.hpp. run.py runs it before
// measuring anything; a failure prints the failed check and exits 1.
//
//   ./lfpr_e2e_selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "e2e_stats.hpp"

using namespace lfpr::e2e;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool same(double a, double b) { return std::fabs(a - b) < 1e-12; }

void testPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  check(same(percentile(v, 50), 50.0), "p50 of 1..100 is 50");
  check(same(percentile(v, 99), 99.0), "p99 of 1..100 is 99");
  check(same(percentile(v, 1), 1.0), "p1 of 1..100 is 1");
  check(same(percentile({7.0}, 50), 7.0), "p50 of one sample");
  check(same(percentile({1.0, 2.0}, 50), 1.0), "p50 of an even count is the lower middle");
  check(same(percentile({1.0, 2.0, 3.0}, 50), 2.0), "p50 of three is the middle");
  check(same(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 90), 5.0), "p90 of five is the max");
  check(same(median({3.0, 1.0, 2.0}), 2.0), "median of three");
  check(same(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of four averages the middle");
  bool threw = false;
  try {
    (void)percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of no samples throws");
}

void testGuard() {
  check(minSamplesFor(99) == 1000, "p99 needs 1000 samples");
  check(minSamplesFor(90) == 100, "p90 needs 100 samples");
  check(minSamplesFor(50) == 20, "p50 needs 20 samples");

  MetricSet m;
  std::vector<double> s(999, 1.0);
  m.addPercentile("visible_p99_ms", s, 99, "ms");
  check(m.find("visible_p99_ms") == nullptr, "p99 from 999 samples is refused");
  check(m.missing.size() == 1 &&
            m.missing[0].rfind("visible_p99_ms:", 0) == 0,
        "the refused metric is named in `missing`");
  s.push_back(2.0);
  m.addPercentile("visible_p99_ms", s, 99, "ms");
  const Metric* p99 = m.find("visible_p99_ms");
  check(p99 != nullptr && same(p99->value, 1.0) && p99->unit == "ms",
        "p99 from 1000 samples is printed");
  m.addMax("empty_max", {}, "ms");
  check(m.find("empty_max") == nullptr && m.missing.size() == 2,
        "max of no samples is refused and named");
}

void testJoin() {
  // Epoch 1 is the initial solve (covers nothing). Epoch 2 is a
  // coalesced step over batches 0-2; batch 3 went into a step that
  // failed and was carried forward, so epoch 3 (the step published by
  // recovery) covers 3-4; epoch 4 covers the last batch.
  const std::vector<PublishEvent> pubs = {
      {1, 0, 10.0}, {2, 3, 20.0}, {3, 5, 35.0}, {4, 6, 50.0}};
  const auto vis = joinVisibility(6, pubs);
  check(vis.size() == 6, "one visibility time per batch");
  check(same(vis[0], 20.0) && same(vis[1], 20.0) && same(vis[2], 20.0),
        "a coalesced step makes all its batches visible at one publish");
  check(same(vis[3], 35.0) && same(vis[4], 35.0),
        "batches of a failed step become visible with the recovery publish");
  check(same(vis[5], 50.0), "the last batch joins the final epoch");

  const auto partial = joinVisibility(7, pubs);
  check(std::isnan(partial[6]), "a batch no epoch covers stays unjoined");

  const auto groups = stepGroups(pubs, 6);
  check(groups.size() == 3, "three steps applied batches");
  check(groups[0].publish == 1 && groups[0].firstBatch == 0 &&
            groups[0].numBatches == 3,
        "the coalesced group spans batches 0-2");
  check(groups[1].publish == 2 && groups[1].firstBatch == 3 &&
            groups[1].numBatches == 2,
        "the recovery group spans batches 3-4");
  check(groups[2].publish == 3 && groups[2].firstBatch == 5 &&
            groups[2].numBatches == 1,
        "the last group is the last batch");

  const auto clipped = stepGroups(pubs, 4);
  check(clipped.size() == 2 && clipped[1].numBatches == 1,
        "groups are clipped to the batches the writer sent");

  bool threw = false;
  try {
    const std::vector<PublishEvent> bad = {{1, 3, 1.0}, {2, 2, 2.0}};
    (void)joinVisibility(3, bad);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "a falling batchesApplied is rejected");
}

}  // namespace

int main() {
  testPercentile();
  testGuard();
  testJoin();
  if (failures != 0) {
    std::printf("lfpr_e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("lfpr_e2e_selftest: ok\n");
  return 0;
}
