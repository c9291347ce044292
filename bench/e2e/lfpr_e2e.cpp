// lfpr_e2e: the end-to-end RankService benchmark program.
//
// One in-process RankService per workload, driven only through its
// public API (submit, snapshot, topK, pprTopK, stats, staleness and
// ServiceOptions::onPublish). The load generator runs in this process:
// one writer thread submits generated batches on an open-loop schedule
// or a closed loop of outstanding batches, and up to two reader threads
// query snapshots. Per workload it measures
//
//   set-up      median of kColdStarts cold starts, construction to first
//               servable snapshot
//   window      --seconds of load: submit-to-visible latency and query
//               latency
//   checks      final ranks against a reference solve, every batch
//               applied, every submit accepted, every read sane
//   restart     median of 3 restarts to the first servable snapshot
//
// and with --trace PATH additionally records spans around every live
// call it makes, then replays the live step grouping offline through the
// layers the service is built from (graph apply + CSR rebuild, the
// engine step the service ran, publish copy, walk fingerprint and PPR
// index build, checkpoint write and load) to attribute step time to
// layers.
//
//   lfpr_e2e --seconds N [--workload NAME[,NAME]] [--seed N]
//            [--trace PATH] [--out PATH] [--workdir DIR]
//
// The window has no default: run.py passes BENCHMARK.json's run_seconds,
// the one place it is set. Sizing is fixed in the workload table below;
// nothing is read from the environment. Exit status: 0 all checks
// passed, 1 a check failed or a metric could not be computed, 2 bad
// command line.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e_stats.hpp"
#include "generate/batch_gen.hpp"
#include "harness/datasets.hpp"
#include "harness/scenario.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/detail/monte_carlo.hpp"
#include "pagerank/error.hpp"
#include "pagerank/reference.hpp"
#include "service/checkpoint.hpp"
#include "service/rank_service.hpp"
#include "util/rng.hpp"

using namespace lfpr;
using namespace lfpr::e2e;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
using StepEngine = ServiceOptions::StepEngine;

// The load is sized for 4 cores: 2 solver threads, one writer and at
// most 2 readers, and the writer sleeps or waits most of the time.
constexpr int kSolverThreads = 2;
constexpr int kColdStarts = 15;
constexpr int kRestarts = 3;
constexpr int kGraphSeed = 1;
constexpr int kGraphScale = 1;
constexpr std::size_t kTopK = 10;
constexpr auto kThinkTime = std::chrono::milliseconds(1);
constexpr auto kStalenessPeriod = std::chrono::milliseconds(100);

enum class Load { Open, Closed };
enum class Reads { Rank, RankTopK, Ppr };

struct Workload {
  const char* name;
  const char* graph;
  StepEngine engine;
  Load load;
  double batchesPerSec;     // open loop
  std::size_t outstanding;  // closed loop
  double batchFraction;     // batch edges as a share of |E|
  int readers;
  Reads reads;
  int readsPerWake;  // reads between 1 ms think times; 0 = no think time
  bool durable;
  std::uint64_t defaultSeed;
};

// Why each workload exists is recorded in README.md; in short:
//   stream-small     small batches, the CSR rebuild dominates each step
//   bulk-saturate    a standing backlog, the pull iteration dominates
//   read-heavy-road  readers beside a light writer on a road graph
//   ppr-durable      Monte Carlo + journal + checkpoints + restart
const Workload kWorkloads[] = {
    {"stream-small", "indochina-2004-sim", StepEngine::Auto, Load::Open, 50.0, 0,
     1e-5, 1, Reads::Rank, 16, false, 101},
    {"bulk-saturate", "asia_osm-sim", StepEngine::Auto, Load::Closed, 0.0, 32,
     1e-3, 1, Reads::Rank, 16, false, 202},
    {"read-heavy-road", "asia_osm-sim", StepEngine::Pull, Load::Open, 10.0, 0, 1e-4,
     2, Reads::RankTopK, 0, false, 303},
    {"ppr-durable", "indochina-2004-sim", StepEngine::MonteCarlo, Load::Open, 50.0, 0,
     1e-5, 1, Reads::Ppr, 1, true, 404},
};

const char* engineName(StepEngine e) {
  switch (e) {
    case StepEngine::Pull: return "Pull";
    case StepEngine::DeltaPush: return "DeltaPush";
    case StepEngine::Auto: return "Auto";
    case StepEngine::MonteCarlo: return "MonteCarlo";
  }
  return "?";
}

const char* queryName(Reads r) {
  switch (r) {
    case Reads::Rank: return "snapshot+rank";
    case Reads::RankTopK: return "snapshot+topK(10)";
    case Reads::Ppr: return "snapshot+pprTopK(10)";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval. Times are ns since the run started; `parent` is
/// the id of the span that caused this one (-1 for none) and `step` the
/// service epoch it belongs to (-1 for none).
struct Span {
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t step = -1;
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// Append-only span buffer owned by one thread; ids are unique across
/// logs because each log draws from its own id range.
class SpanLog {
 public:
  SpanLog(bool enabled, int slot)
      : enabled_(enabled), firstId_(static_cast<std::int64_t>(slot) << 40),
        nextId_(firstId_) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int64_t add(const char* name, std::int64_t startNs, std::int64_t endNs,
                   std::int64_t parent = -1, std::int64_t step = -1) {
    if (!enabled_) return -1;
    const std::int64_t id = nextId_++;
    spans_.push_back({id, parent, step, name, startNs, endNs});
    return id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// A span this log recorded, to fill in its end or parent later.
  Span& byId(std::int64_t id) { return spans_.at(static_cast<std::size_t>(id - firstId_)); }

 private:
  bool enabled_;
  std::int64_t firstId_;
  std::int64_t nextId_;
  std::vector<Span> spans_;
};

struct RunClock {
  Clock::time_point t0 = Clock::now();
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
  }
  [[nodiscard]] double ms(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  }
  [[nodiscard]] std::int64_t nowNs() const { return ns(Clock::now()); }
};

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per span name: count, total time and self time (span minus the part
/// its child spans cover).
struct SelfTime {
  std::uint64_t count = 0;
  double totalMs = 0.0;
  double selfMs = 0.0;
};

std::map<std::string, SelfTime> selfTimes(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> byId;
  for (std::size_t i = 0; i < spans.size(); ++i) byId[spans[i].id] = i;
  std::vector<std::int64_t> childNs(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto it = byId.find(s.parent);
    if (it != byId.end()) childNs[it->second] += s.endNs - s.startNs;
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SelfTime& t = out[s.name];
    const auto dur = static_cast<double>(s.endNs - s.startNs);
    ++t.count;
    t.totalMs += dur / 1e6;
    t.selfMs += std::max(0.0, dur - static_cast<double>(childNs[i])) / 1e6;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void appendBatch(BatchUpdate& merged, const BatchUpdate& batch) {
  merged.deletions.insert(merged.deletions.end(), batch.deletions.begin(),
                          batch.deletions.end());
  merged.insertions.insert(merged.insertions.end(), batch.insertions.begin(),
                           batch.insertions.end());
}

std::uint64_t csrBytes(const CsrGraph& g) {
  return g.outOffsets().size_bytes() + g.outTargets().size_bytes() +
         g.inOffsets().size_bytes() + g.inSources().size_bytes() +
         g.invOutDegrees().size_bytes();
}

std::uint64_t directoryBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Output checks and operation counts, each attempt counted once: an
/// output check is one attempt, a kind of operation (submits, reads) is
/// one attempt per call. error_rate = failed / attempted.
struct Outcome {
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(std::string name, bool ok, std::string detail) {
    count(std::move(name), 1, ok ? 0 : 1, std::move(detail));
  }
  /// `attempts` calls of one kind, `failures` of which failed.
  void count(std::string name, std::uint64_t attempts, std::uint64_t failures,
             std::string detail) {
    attempted += attempts;
    failed += failures;
    checks.push_back({std::move(name), failures == 0, std::move(detail)});
  }
};

// ---------------------------------------------------------------------------
// Service plumbing
// ---------------------------------------------------------------------------

/// What the service had done by one publish: its counters, and whether
/// the epoch carried the walk store's personalized index.
struct PublishDetail {
  ServiceStats stats;
  bool monteCarlo = false;
};

/// Everything onPublish reports, timestamped on the run clock. The
/// writer of a closed loop waits on `cv` for batches to become visible.
struct PublishLog {
  explicit PublishLog(const RunClock& clock) : clock(clock) {}

  void record(const RankSnapshot& s) {
    const double at = clock.ms(Clock::now());
    // The counters tell the replay what each live step did. `service` is
    // null only while the constructor runs, when only epoch 1 can
    // publish; the replay never reads epoch 1's counters.
    const RankService* svc = service.load(std::memory_order_acquire);
    PublishDetail detail{svc != nullptr ? svc->stats() : ServiceStats{}, s.monteCarlo};
    {
      // Stored under the mutex: it is the closed-loop writer's wait
      // predicate, and a store between its check and its wait would be
      // a lost wakeup.
      std::lock_guard<std::mutex> lock(mu);
      events.push_back({s.epoch, s.batchesApplied, at});
      details.push_back(std::move(detail));
      visibleBatches.store(s.batchesApplied, std::memory_order_release);
    }
    cv.notify_all();
  }

  const RunClock& clock;
  std::atomic<const RankService*> service{nullptr};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<PublishEvent> events;    // guarded by mu
  std::vector<PublishDetail> details;  // guarded by mu; one per event
  std::atomic<std::uint64_t> visibleBatches{0};
};

struct Warnings {
  std::mutex mu;
  std::vector<std::string> messages;  // guarded by mu
  void add(const std::string& m) {
    std::lock_guard<std::mutex> lock(mu);
    messages.push_back(m);
  }
};

ServiceOptions serviceOptions(const Workload& w, VertexId n, const std::string& dir,
                              PublishLog* log, Warnings* warnings) {
  ServiceOptions o;
  o.solver = scaledOptions(n);
  o.solver.numThreads = kSolverThreads;
  o.stepEngine = w.engine;
  if (log != nullptr)
    o.onPublish = [log](const RankSnapshot& s) { log->record(s); };
  if (w.durable) {
    o.durability.directory = dir;
    o.durability.fsync = FsyncPolicy::Batch;
    o.durability.checkpointEverySolves = 8;
    if (warnings != nullptr)
      o.durability.onWarning = [warnings](const std::string& m) { warnings->add(m); };
  }
  return o;
}

/// Block until the service can answer the workload's queries: epoch 1
/// for the exact engines, the first Monte Carlo epoch for pprTopK.
void waitServable(RankService& s, const Workload& w) {
  s.waitForEpoch(1);
  if (w.engine != StepEngine::MonteCarlo) return;
  // Sleep-poll rather than spin: a spinning waiter on a small host
  // steals cycles from the very start-up work being timed.
  while (!s.snapshot()->monteCarlo)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

// ---------------------------------------------------------------------------
// Live window
// ---------------------------------------------------------------------------

struct ReaderResult {
  std::vector<double> queryNs;  // the workload's primary query
  std::vector<double> readNs;   // every read
  std::uint64_t reads = 0;
  std::uint64_t failures = 0;
  std::string firstFailure;
  double sink = 0.0;  // keeps the query results observable
};

void readerLoop(const RankService& svc, const Workload& w, std::uint64_t seed, int tid,
                Clock::time_point windowEnd, SpanLog& spans, const RunClock& clock,
                ReaderResult& out) {
  Rng rng(seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(tid + 1));
  const VertexId n = svc.numVertices();
  std::uint64_t lastEpoch = 0;
  out.queryNs.reserve(1 << 20);
  out.readNs.reserve(1 << 20);
  const auto fail = [&](const std::string& why) {
    if (out.failures++ == 0) out.firstFailure = why;
  };
  for (std::uint64_t i = 0;; ++i) {
    const bool topk = w.reads == Reads::RankTopK && rng.below(10) == 0;
    const auto v = static_cast<VertexId>(rng.below(n));
    std::uint64_t epoch = 0;
    bool mcEpoch = false;
    std::size_t results = 1;
    const auto t0 = Clock::now();
    {
      const SnapshotView view = svc.snapshot();
      epoch = view->epoch;
      if (w.reads == Reads::Ppr) {
        mcEpoch = view->monteCarlo;
        if (view->ppr != nullptr) {
          const auto top = view->ppr->topK(v, kTopK);
          results = top.size();
          if (!top.empty()) out.sink += top.front().score;
        } else {
          results = 0;
        }
      } else if (topk) {
        const auto top = view->topK(kTopK);
        out.sink += top.front().second;
      } else {
        out.sink += view->rank(v);
      }
    }
    const auto t1 = Clock::now();
    if (t1 >= windowEnd) break;

    ++out.reads;
    if (epoch == 0) fail("read the epoch-0 placeholder after set-up");
    if (epoch < lastEpoch)
      fail("epoch went back from " + std::to_string(lastEpoch) + " to " +
           std::to_string(epoch));
    if (mcEpoch && results == 0)
      fail("empty pprTopK on Monte Carlo epoch " + std::to_string(epoch));
    lastEpoch = std::max(lastEpoch, epoch);

    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    out.readNs.push_back(ns);
    const bool primary = w.reads != Reads::RankTopK || topk;
    if (primary) out.queryNs.push_back(ns);
    // One read in 64 gets a span (all of them would make the span file
    // hundreds of megabytes), picked by the top 6 bits of a Fibonacci
    // hash of the read index so no position inside a burst is favoured.
    if (spans.enabled() && (i * 0x9e3779b97f4a7c15ULL) >> 58 == 0)
      spans.add(topk ? "service.snapshot+topK" : w.reads == Reads::Ppr
                                                     ? "service.snapshot+pprTopK"
                                                     : "service.snapshot+rank",
                clock.ns(t0), clock.ns(t1), -1, static_cast<std::int64_t>(epoch));
    if (w.readsPerWake > 0 && (i + 1) % static_cast<std::uint64_t>(w.readsPerWake) == 0)
      std::this_thread::sleep_for(kThinkTime);
  }
}

/// What the writer did with each batch it sent, in submission order.
struct WriterResult {
  std::vector<BatchUpdate> sent;
  std::vector<double> dueMs;       // open loop: schedule; closed loop: = sendMs
  std::vector<double> sendMs;      // submit() called
  std::vector<double> enqueuedMs;  // submit() returned
  std::vector<std::int64_t> submitSpan;
  std::vector<double> lateMs;
  std::uint64_t submitFailures = 0;
  std::uint64_t edges = 0;
  std::uint64_t backlogMax = 0;
};

class Writer {
 public:
  Writer(RankService& svc, const Workload& w, DynamicDigraph& twin,
         std::size_t batchEdges, std::uint64_t seed, PublishLog& publishes,
         SpanLog& spans, const RunClock& clock)
      : svc_(svc), w_(w), twin_(twin), batchEdges_(batchEdges), rng_(seed),
        publishes_(publishes), spans_(spans), clock_(clock) {}

  /// Generate ahead of the window so the first batches are ready when
  /// they fall due: one for the open loop, the whole closed-loop depth.
  void prepare() {
    const std::size_t ahead = w_.load == Load::Open ? 1 : w_.outstanding;
    while (ready_.size() < ahead) generate();
  }

  WriterResult run(Clock::time_point start, Clock::time_point end) {
    nextSample_ = start;
    if (w_.load == Load::Open)
      runOpen(start, end);
    else
      runClosed(end);
    return std::move(out_);
  }

 private:
  void generate() {
    BatchUpdate b = generateBatch(twin_, batchEdges_, rng_);
    twin_.applyBatch(b);
    ready_.push_back(std::move(b));
  }

  void submitNext(Clock::time_point due) {
    BatchUpdate batch = std::move(ready_.front());
    ready_.pop_front();
    BatchUpdate copy = batch;  // submit() takes ownership; the replay needs it too
    const auto t0 = Clock::now();
    const bool ok = svc_.submit(std::move(copy));
    const auto t1 = Clock::now();
    if (!ok) ++out_.submitFailures;
    out_.edges += batch.size();
    out_.dueMs.push_back(clock_.ms(due));
    out_.sendMs.push_back(clock_.ms(t0));
    out_.enqueuedMs.push_back(clock_.ms(t1));
    out_.lateMs.push_back(std::max(0.0, msBetween(due, t0)));
    out_.submitSpan.push_back(spans_.add("service.submit", clock_.ns(t0), clock_.ns(t1)));
    out_.sent.push_back(std::move(batch));
  }

  void sampleStaleness() {
    const auto now = Clock::now();
    if (now < nextSample_) return;
    nextSample_ = now + kStalenessPeriod;
    const Staleness st = svc_.staleness();
    spans_.add("service.staleness", clock_.ns(now), clock_.nowNs());
    out_.backlogMax = std::max(out_.backlogMax, st.pendingBatches);
  }

  void runOpen(Clock::time_point start, Clock::time_point end) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w_.batchesPerSec));
    for (std::uint64_t i = 0;; ++i) {
      const auto due = start + period * static_cast<std::int64_t>(i);
      if (due >= end) break;
      if (ready_.empty()) generate();  // only if generation fell behind
      std::this_thread::sleep_until(due);
      submitNext(due);
      sampleStaleness();
      generate();  // the next batch, before it falls due
    }
  }

  void runClosed(Clock::time_point end) {
    for (;;) {
      const auto now = Clock::now();
      if (now >= end) break;
      sampleStaleness();
      const std::uint64_t visible =
          publishes_.visibleBatches.load(std::memory_order_acquire);
      if (out_.sent.size() - visible < w_.outstanding && !ready_.empty()) {
        submitNext(now);
      } else if (ready_.size() < w_.outstanding) {
        generate();
      } else {
        std::unique_lock<std::mutex> lock(publishes_.mu);
        publishes_.cv.wait_until(lock, std::min(end, now + kStalenessPeriod), [&] {
          return out_.sent.size() -
                     publishes_.visibleBatches.load(std::memory_order_acquire) <
                 w_.outstanding;
        });
      }
    }
  }

  RankService& svc_;
  const Workload& w_;
  DynamicDigraph& twin_;
  std::size_t batchEdges_;
  Rng rng_;
  PublishLog& publishes_;
  SpanLog& spans_;
  const RunClock& clock_;
  std::deque<BatchUpdate> ready_;
  Clock::time_point nextSample_{};
  WriterResult out_;
};

// ---------------------------------------------------------------------------
// Offline layer replay (traced runs)
// ---------------------------------------------------------------------------

/// What the live service did in one step group, read from the stats() it
/// reported at the group's publish and at the publishes around it.
struct LiveRoute {
  bool deltaPush = false;          // the step ran lfDeltaPushStep
  bool monteCarlo = false;         // the step ran lfMonteCarloStep
  bool monteCarloPublish = false;  // the epoch carried a PPR index
  std::uint64_t recoveries = 0;    // full re-solves after the step
  std::uint64_t failedSteps = 0;   // steps in the group that published nothing
  bool checkpointAfter = false;    // a checkpoint followed the publish
};

/// Routes of `groups`, from the counters at each publish. Epoch 1's
/// counters may not have been read (the service was still being
/// constructed); `before`, read after epoch 1 and before the first
/// submit, stands in for them. `after` closes the last publish.
std::vector<LiveRoute> liveRoutes(const std::vector<StepGroup>& groups,
                                  const std::vector<PublishDetail>& details,
                                  const ServiceStats& before, const ServiceStats& after) {
  const auto statsAt = [&](std::size_t p) -> const ServiceStats& {
    if (p == 0) return before;
    return p < details.size() ? details[p].stats : after;
  };
  std::vector<LiveRoute> routes;
  for (const StepGroup& g : groups) {
    const ServiceStats& prev = statsAt(g.publish - 1);
    const ServiceStats& at = statsAt(g.publish);
    LiveRoute r;
    r.deltaPush = at.deltaPushSteps > prev.deltaPushSteps;
    r.monteCarlo = at.monteCarloSteps > prev.monteCarloSteps;
    r.monteCarloPublish = details[g.publish].monteCarlo;
    r.recoveries = at.recoveries - prev.recoveries;
    r.failedSteps = at.failedSteps - prev.failedSteps;
    r.checkpointAfter = statsAt(g.publish + 1).checkpoints > at.checkpoints;
    routes.push_back(r);
  }
  return routes;
}

struct ReplayResult {
  std::size_t steps = 0;
  std::size_t unmatched = 0;
  std::vector<double> applyMs, toCsrMs, engineMs, publishMs, checkpointMs;
  std::vector<double> iterations, affected, rankUpdates;
  double fullStepMs = 0.0;
  double stageMs = 0.0;     // sum over replayed steps of every stage
  double liveStepMs = 0.0;  // the same steps' live service.step_ms
  double toCsrTotalMs = 0.0;
  double engineTotalMs = 0.0;
  std::uint64_t checkpointBytes = 0;
  double restartLoadMs = 0.0;
  std::uint64_t csrBytes = 0;
};

/// Replays the live step grouping through the calls one service step
/// makes and times each. Which engine ran, how many recovery re-solves
/// followed, whether the epoch carried a PPR index and whether a
/// checkpoint followed are read from the live service (LiveRoute), not
/// decided again here. A group the replay cannot reproduce is counted in
/// `unmatched`: one that held a step which failed and published nothing
/// (only the publishing re-solve is replayed), or one whose replayed
/// engine converged where the live one needed recovery, or the other way
/// round. Stops after `budget` of wall time; the steps it reached are
/// complete.
class Replay {
 public:
  Replay(const CsrGraph& initial, const ServiceOptions& sopt, fs::path dir, SpanLog& spans,
         const RunClock& clock)
      : sopt_(sopt), opt_(sopt.solver), dir_(std::move(dir)), spans_(spans), clock_(clock),
        graph_(DynamicDigraph::fromCsr(initial)), curr_(initial),
        state_(initial.numVertices()) {
    state_.seedUniform();
  }

  ReplayResult run(const std::vector<BatchUpdate>& sent, const std::vector<StepGroup>& groups,
                   const std::vector<LiveRoute>& routes,
                   const std::vector<PublishEvent>& publishes, bool initialMonteCarlo,
                   const std::vector<double>& liveStepMs, Clock::duration budget) {
    fs::create_directories(dir_);
    out_.fullStepMs = measure(
        initialMonteCarlo ? "pagerank.lfMonteCarloStep(build)" : "pagerank.lfFullStep", -1, 1,
        [&] { last_ = fullSolve(initialMonteCarlo); });

    const auto deadline = Clock::now() + budget;
    std::int64_t epoch = 1;
    for (std::size_t k = 0; k < groups.size() && Clock::now() < deadline; ++k) {
      epoch = static_cast<std::int64_t>(publishes[groups[k].publish].epoch);
      step(sent, groups[k], routes[k], epoch);
      out_.liveStepMs += liveStepMs[k];
    }

    // One checkpoint of the final state, written and loaded back on every
    // workload: the durability layer's cost on this graph whether or not
    // the live service checkpointed. It is outside the live steps, so it
    // is not stage time.
    out_.checkpointMs.push_back(measure("service.writeCheckpoint(final)", -1, epoch, [&] {
      writeAndPrune(state_.ranks.toVector(), epoch);
    }));
    out_.checkpointBytes = directoryBytes(dir_);
    std::optional<CheckpointData> loaded;
    out_.restartLoadMs = measure("service.loadNewestCheckpoint", -1, epoch, [&] {
      loaded = loadNewestCheckpoint(dir_.string(), curr_.numVertices(), nullptr,
                                    opt_.numThreads);
    });
    if (!loaded) throw std::runtime_error("replay: no checkpoint loaded back");
    out_.csrBytes = csrBytes(curr_);
    return std::move(out_);
  }

 private:
  PageRankResult fullSolve(bool monteCarlo) {
    if (monteCarlo) {
      state_.monteCarloValid = false;
      return detail::lfMonteCarloStep(state_, curr_, curr_, BatchUpdate{}, opt_, nullptr,
                                      "replay");
    }
    return detail::lfFullStep(state_, curr_, opt_, nullptr);
  }

  /// Time `fn` as a span; returns its duration in ms.
  template <typename Fn>
  double measure(const char* name, std::int64_t parent, std::int64_t epoch, Fn&& fn) {
    const std::int64_t t0 = clock_.nowNs();
    fn();
    const std::int64_t t1 = clock_.nowNs();
    spans_.add(name, t0, t1, parent, epoch);
    return static_cast<double>(t1 - t0) / 1e6;
  }

  /// measure() for a stage of a replayed step, which counts in stageMs.
  template <typename Fn>
  double stage(const char* name, std::int64_t parent, std::int64_t epoch, Fn&& fn) {
    const double ms = measure(name, parent, epoch, std::forward<Fn>(fn));
    out_.stageMs += ms;
    return ms;
  }

  void step(const std::vector<BatchUpdate>& sent, const StepGroup& g, const LiveRoute& route,
            std::int64_t epoch) {
    // The step span is recorded first so its stages can name it as
    // parent; its end is filled in when the step is done.
    const std::int64_t start = clock_.nowNs();
    const std::int64_t self = spans_.add("replay.step", start, start, -1, epoch);

    const CsrGraph prev = curr_;
    BatchUpdate merged;
    out_.applyMs.push_back(stage("graph.applyBatch", self, epoch, [&] {
      for (std::size_t b = g.firstBatch; b < g.firstBatch + g.numBatches; ++b) {
        graph_.applyBatch(sent[b]);
        appendBatch(merged, sent[b]);
      }
    }));
    const double csrMs = stage("graph.toCsr", self, epoch, [&] { curr_ = graph_.toCsr(); });
    out_.toCsrMs.push_back(csrMs);
    out_.toCsrTotalMs += csrMs;

    const bool failed = route.failedSteps > 0;
    const char* engine = "pagerank.lfDynamicStep";
    std::function<PageRankResult()> run = [&] {
      return detail::lfDynamicStep(state_, prev, curr_, merged, opt_, nullptr, sopt_.traverse,
                                   sopt_.expandFrontier, "replay");
    };
    if (failed) {
      // What the publishing step of the group ran: the full re-solve a
      // failed step leaves owed.
      engine = route.monteCarloPublish ? "pagerank.lfMonteCarloStep(build)"
                                       : "pagerank.lfFullStep";
      run = [&] { return fullSolve(route.monteCarloPublish); };
    } else if (route.monteCarlo) {
      engine = "pagerank.lfMonteCarloStep";
      run = [&] {
        return detail::lfMonteCarloStep(state_, prev, curr_, merged, opt_, nullptr, "replay");
      };
    } else if (route.deltaPush) {
      engine = "pagerank.lfDeltaPushStep";
      run = [&] {
        return detail::lfDeltaPushStep(state_, prev, curr_, merged, opt_, nullptr, "replay");
      };
    }
    double engineMs = stage(engine, self, epoch, [&] { last_ = run(); });
    out_.iterations.push_back(last_.iterations);
    out_.affected.push_back(static_cast<double>(last_.affectedVertices));
    out_.rankUpdates.push_back(static_cast<double>(last_.rankUpdates));
    const bool engineConverged = last_.converged;
    const std::uint64_t recoveries = failed ? 0 : route.recoveries;
    for (std::uint64_t i = 0; i < recoveries; ++i)
      engineMs += stage("pagerank.lfFullStep(recovery)", self, epoch,
                        [&] { last_ = detail::lfFullStep(state_, curr_, opt_, nullptr); });
    out_.engineMs.push_back(engineMs);
    out_.engineTotalMs += engineMs;
    if (failed || engineConverged != (recoveries == 0) || !last_.converged) ++out_.unmatched;

    // What publishing the epoch costs the service: the rank copy, and for
    // an epoch with a PPR index the walk-store fingerprint and the index.
    std::vector<double> ranks;
    double publishMs =
        stage("service.publishCopy", self, epoch, [&] { ranks = state_.ranks.toVector(); });
    if (route.monteCarloPublish && state_.monteCarloValid && state_.monteCarlo != nullptr) {
      publishMs += stage("pagerank.walkFingerprint", self, epoch,
                         [&] { (void)state_.monteCarlo->fingerprint(); });
      publishMs += stage("pagerank.buildPprIndex", self, epoch, [&] {
        (void)detail::buildPprIndex(*state_.monteCarlo, opt_.numThreads);
      });
    }
    out_.publishMs.push_back(publishMs);
    if (route.checkpointAfter)
      out_.checkpointMs.push_back(stage("service.writeCheckpoint", self, epoch, [&] {
        writeAndPrune(std::move(ranks), epoch);
      }));

    spans_.byId(self).endNs = clock_.nowNs();
    ++out_.steps;
  }

  void writeAndPrune(std::vector<double> ranks, std::int64_t epoch) {
    CheckpointData data;
    data.epoch = static_cast<std::uint64_t>(epoch);
    data.iterations = last_.iterations;
    data.toleranceBound = last_.toleranceBound;
    data.ranks = std::move(ranks);
    data.graph = curr_;
    if (state_.monteCarloValid && state_.monteCarlo != nullptr)
      data.walks = detail::mcSerializeStore(*state_.monteCarlo);
    writeCheckpoint(dir_.string(), data);
    pruneCheckpoints(dir_.string(), data.epoch);
  }

  const ServiceOptions& sopt_;
  PageRankOptions opt_;
  fs::path dir_;
  SpanLog& spans_;
  const RunClock& clock_;
  DynamicDigraph graph_;
  CsrGraph curr_;
  detail::LfEngineState state_;
  PageRankResult last_;
  ReplayResult out_;
};

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct Cli {
  std::vector<const Workload*> workloads;
  std::optional<std::uint64_t> seed;
  int seconds = 0;  // required
  std::string tracePath;
  std::string outPath;
  std::string workdir;
};

struct WorkloadResult {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  VertexId vertices = 0;
  EdgeId edges = 0;
  std::size_t batchEdges = 0;
  MetricSet metrics;   // end to end
  MetricSet perLayer;  // traced runs only
  Outcome outcome;
  std::vector<std::string> warnings;
  std::vector<Span> spans;
  std::map<std::string, SelfTime> self;
};

CsrGraph buildGraph(const Workload& w, DynamicDigraph& twin) {
  for (const DatasetSpec& spec : staticDatasets(kGraphScale)) {
    if (spec.name != w.graph) continue;
    twin = spec.build(kGraphSeed);  // self-loops included
    return twin.toCsr();
  }
  throw std::runtime_error(std::string("graph not in the registry: ") + w.graph);
}

/// Median of kColdStarts cold starts, construction to first servable
/// snapshot (durable: each in a fresh directory).
double setupSeconds(const Workload& w, const CsrGraph& initial, const fs::path& workdir,
                    Warnings& warnings) {
  std::vector<double> seconds;
  for (int i = 0; i < kColdStarts; ++i) {
    const fs::path dir = workdir / ("setup-" + std::to_string(i));
    const ServiceOptions opt =
        serviceOptions(w, initial.numVertices(), dir.string(), nullptr, &warnings);
    const auto t0 = Clock::now();
    RankService s(initial, opt);
    waitServable(s, w);
    seconds.push_back(msBetween(t0, Clock::now()) / 1e3);
    s.stop();
  }
  return median(seconds);
}

/// Median of kRestarts restarts to the first servable snapshot. Durable:
/// from byte-identical copies of the drained directory, each checked to
/// recover every batch sent. In memory: the only restart path is a fresh
/// service on the final graph.
double restartSeconds(const Workload& w, const CsrGraph& initial,
                      const CsrGraph& finalCsr, const fs::path& liveDir,
                      std::size_t batchesSent, const fs::path& workdir,
                      Warnings& warnings, Outcome& outcome) {
  std::vector<double> seconds;
  for (int i = 0; i < kRestarts; ++i) {
    const fs::path dir = workdir / ("restart-" + std::to_string(i));
    if (w.durable) fs::copy(liveDir, dir, fs::copy_options::recursive);
  }
  for (int i = 0; i < kRestarts; ++i) {
    const fs::path dir = workdir / ("restart-" + std::to_string(i));
    const ServiceOptions opt =
        serviceOptions(w, initial.numVertices(), dir.string(), nullptr, &warnings);
    const auto t0 = Clock::now();
    RankService s(w.durable ? initial : finalCsr, opt);
    waitServable(s, w);
    seconds.push_back(msBetween(t0, Clock::now()) / 1e3);
    if (w.durable) {
      s.waitIdle();
      const std::uint64_t applied = s.snapshot()->batchesApplied;
      outcome.check("restart_batches_" + std::to_string(i), applied == batchesSent,
                    "restart recovered " + std::to_string(applied) + " of " +
                        std::to_string(batchesSent) + " batches");
    }
    s.stop();
  }
  return median(seconds);
}

/// Allowance on the published certificate for the ranks' distance from a
/// reference solve. Push steps park up to tau of residual at every vertex,
/// which the certificate does not cover; the repository's own delta-push
/// and Auto service tests accept 16x for that reason (test_kernels.cpp).
double certificateSlack(StepEngine e) {
  return e == StepEngine::Auto || e == StepEngine::DeltaPush ? 16.0 : 1.0;
}

/// The output checks after the window: every batch applied, final ranks
/// within the published certificate of a reference solve on the graph the
/// writer produced.
void checkOutputs(const Workload& w, const RankSnapshot& last, const CsrGraph& finalCsr,
                  double alpha, std::size_t batchesSent, Outcome& outcome) {
  outcome.check("batches_applied", last.batchesApplied == batchesSent,
                "final epoch applied " + std::to_string(last.batchesApplied) + " of " +
                    std::to_string(batchesSent) + " batches sent");
  const std::vector<double> ref = referenceRanks(finalCsr, alpha);
  if (last.monteCarlo) {
    const double l1 = l1Norm(last.ranks, ref);
    outcome.check("ranks_l1", l1 <= last.toleranceBound,
                  "L1 " + num(l1) + " vs mcL1ErrorBound " + num(last.toleranceBound));
  } else {
    const double linf = linfNorm(last.ranks, ref);
    const double slack = certificateSlack(w.engine);
    outcome.check("ranks_linf", linf <= slack * last.toleranceBound,
                  "Linf " + num(linf) + " vs " + num(slack) + " x certificate " +
                      num(last.toleranceBound));
  }
}

/// Everything the live window leaves behind for the metrics.
struct LiveResult {
  WriterResult writer;
  std::vector<ReaderResult> readers;
  std::vector<PublishEvent> publishes;
  std::vector<PublishDetail> details;  // one per publish
  ServiceStats before;
  ServiceStats after;
  CsrGraph finalCsr;
};

LiveResult runLive(const Workload& w, const CsrGraph& initial, DynamicDigraph& twin,
                   std::size_t batchEdges, std::uint64_t seed, int seconds,
                   const fs::path& liveDir, std::vector<SpanLog>& spans,
                   const RunClock& clock, Warnings& warnings, Outcome& outcome) {
  LiveResult live;
  live.readers.resize(static_cast<std::size_t>(w.readers));
  PublishLog publishLog(clock);
  SpanLog& writerSpans = spans[0];
  const ServiceOptions opt =
      serviceOptions(w, initial.numVertices(), liveDir.string(), &publishLog, &warnings);
  RankService svc(initial, opt);
  publishLog.service.store(&svc, std::memory_order_release);
  waitServable(svc, w);
  Writer writer(svc, w, twin, batchEdges, seed, publishLog, writerSpans, clock);
  writer.prepare();

  const std::int64_t statsNs = clock.nowNs();
  live.before = svc.stats();
  writerSpans.add("service.stats", statsNs, clock.nowNs());
  const auto start = Clock::now();
  const auto end = start + std::chrono::seconds(seconds);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < live.readers.size(); ++t)
      threads.emplace_back([&, t] {
        ReaderResult& out = live.readers[t];
        try {
          readerLoop(svc, w, seed, static_cast<int>(t), end, spans[t + 1], clock, out);
        } catch (const std::exception& e) {
          if (out.failures++ == 0) out.firstFailure = std::string("reader threw: ") + e.what();
        }
      });
    live.writer = writer.run(start, end);
  }
  svc.waitIdle();
  live.after = svc.stats();

  DynamicDigraph expect = DynamicDigraph::fromCsr(initial);
  for (const BatchUpdate& b : live.writer.sent) expect.applyBatch(b);
  live.finalCsr = expect.toCsr();
  checkOutputs(w, *svc.snapshot(), live.finalCsr, opt.solver.alpha, live.writer.sent.size(),
               outcome);
  svc.drainAndStop();
  std::lock_guard<std::mutex> lock(publishLog.mu);
  live.publishes = publishLog.events;
  live.details = publishLog.details;
  return live;
}

/// Per-layer metrics of a traced run: the live step grouping and service
/// counters, then the offline replay of the same steps.
void tracedMetrics(const Workload& w, const CsrGraph& initial, const LiveResult& live,
                   int seconds, const fs::path& workdir, SpanLog& writerSpans,
                   SpanLog& replaySpans, const RunClock& clock, MetricSet& p) {
  const WriterResult& wr = live.writer;
  const std::vector<PublishEvent>& publishes = live.publishes;
  const std::vector<StepGroup> groups = stepGroups(publishes, wr.sent.size());
  std::vector<double> liveStepMs;
  std::vector<double> batchesPerStep;
  for (const StepGroup& g : groups) {
    // A step starts when the previous epoch is out and its first batch
    // is queued, and ends when its epoch is published.
    const double prevPublish = g.publish > 0 ? publishes[g.publish - 1].atMs : 0.0;
    const double startMs = std::max(prevPublish, wr.enqueuedMs[g.firstBatch]);
    const double endMs = publishes[g.publish].atMs;
    liveStepMs.push_back(endMs - startMs);
    batchesPerStep.push_back(static_cast<double>(g.numBatches));
    const auto epoch = static_cast<std::int64_t>(publishes[g.publish].epoch);
    writerSpans.add("service.step", static_cast<std::int64_t>(startMs * 1e6),
                    static_cast<std::int64_t>(endMs * 1e6), -1, epoch);
    // Each batch's due-to-visible interval, tagged with the epoch that
    // published it; the submit call is its child.
    for (std::size_t b = g.firstBatch; b < g.firstBatch + g.numBatches; ++b) {
      const std::int64_t vis = writerSpans.add(
          "load.batch_visible", static_cast<std::int64_t>(wr.dueMs[b] * 1e6),
          static_cast<std::int64_t>(endMs * 1e6), -1, epoch);
      Span& submit = writerSpans.byId(wr.submitSpan[b]);
      submit.parent = vis;
      submit.step = epoch;
    }
  }

  std::vector<double> submitUs;
  for (std::size_t i = 0; i < wr.sent.size(); ++i)
    submitUs.push_back((wr.enqueuedMs[i] - wr.sendMs[i]) * 1e3);
  std::vector<double> readNs;
  std::uint64_t reads = 0;
  for (const ReaderResult& rr : live.readers) {
    readNs.insert(readNs.end(), rr.readNs.begin(), rr.readNs.end());
    reads += rr.reads;
  }
  const auto delta = [&](std::uint64_t ServiceStats::*field) {
    return static_cast<double>(live.after.*field - live.before.*field);
  };
  p.add("service.submit_us.p50", median(submitUs), "us");
  p.addMax("service.submit_us.max", submitUs, "us");
  p.add("service.step_ms.p50", median(liveStepMs), "ms");
  p.addMax("service.step_ms.max", liveStepMs, "ms");
  p.add("service.batches_per_step.mean", mean(batchesPerStep), "batches");
  p.add("service.backlog_max_batches", static_cast<double>(wr.backlogMax), "batches");
  p.add("service.recoveries", delta(&ServiceStats::recoveries), "count");
  p.add("service.failed_steps", delta(&ServiceStats::failedSteps), "count");
  p.add("service.delta_push_steps", delta(&ServiceStats::deltaPushSteps), "count");
  p.add("service.monte_carlo_steps", delta(&ServiceStats::monteCarloSteps), "count");
  p.add("service.solves", delta(&ServiceStats::solves), "count");
  p.addPercentile("service.read_ns.p50", readNs, 50, "ns");
  p.addPercentile("service.read_ns.p99", readNs, 99, "ns");
  p.addMax("gen.late_ms.max", wr.lateMs, "ms");
  p.add("gen.batches", static_cast<double>(wr.sent.size()), "count");
  p.add("gen.edges", static_cast<double>(wr.edges), "count");
  p.add("gen.reads", static_cast<double>(reads), "count");

  // The replay runs after the live service is gone, for at most half the
  // window so a traced run stays bounded.
  const ServiceOptions replayOpt =
      serviceOptions(w, initial.numVertices(), "", nullptr, nullptr);
  Replay replay(initial, replayOpt, workdir / "replay", replaySpans, clock);
  const ReplayResult rp =
      replay.run(wr.sent, groups, liveRoutes(groups, live.details, live.before, live.after),
                 publishes, live.details.front().monteCarlo, liveStepMs,
                 std::chrono::seconds(std::max(5, seconds / 2)));
  if (rp.steps == 0) {
    p.missing.push_back("replay: no step replayed");
    return;
  }
  p.add("graph.apply_ms.p50", median(rp.applyMs), "ms");
  p.add("graph.to_csr_ms.p50", median(rp.toCsrMs), "ms");
  p.addMax("graph.to_csr_ms.max", rp.toCsrMs, "ms");
  p.add("graph.to_csr_share", rp.toCsrTotalMs / rp.stageMs, "ratio");
  p.add("graph.csr_bytes", static_cast<double>(rp.csrBytes), "bytes");
  p.add("pagerank.step_ms.p50", median(rp.engineMs), "ms");
  p.addMax("pagerank.step_ms.max", rp.engineMs, "ms");
  p.add("pagerank.step_share", rp.engineTotalMs / rp.stageMs, "ratio");
  p.add("pagerank.iterations.p50", median(rp.iterations), "count");
  p.add("pagerank.affected_vertices.p50", median(rp.affected), "count");
  p.add("pagerank.rank_updates.p50", median(rp.rankUpdates), "count");
  p.add("pagerank.full_step_ms", rp.fullStepMs, "ms");
  p.add("service.publish_ms.p50", median(rp.publishMs), "ms");
  p.add("service.checkpoint_ms.p50", median(rp.checkpointMs), "ms");
  p.add("service.checkpoint_bytes", static_cast<double>(rp.checkpointBytes), "bytes");
  p.add("service.restart_load_ms", rp.restartLoadMs, "ms");
  p.add("trace.replayed_steps", static_cast<double>(rp.steps), "count");
  p.add("trace.unmatched_steps", static_cast<double>(rp.unmatched), "count");
  p.add("trace.coverage", rp.stageMs / rp.liveStepMs, "ratio");
}

WorkloadResult runWorkload(const Workload& w, const Cli& cli, const fs::path& workdir) {
  WorkloadResult r;
  r.w = &w;
  r.seed = cli.seed.value_or(w.defaultSeed);
  const bool tracing = !cli.tracePath.empty();
  const RunClock clock;
  fs::remove_all(workdir);
  fs::create_directories(workdir);

  DynamicDigraph twin;
  const CsrGraph initial = buildGraph(w, twin);
  r.vertices = initial.numVertices();
  r.edges = initial.numEdges();
  r.batchEdges = std::max<std::size_t>(
      1, static_cast<std::size_t>(w.batchFraction * static_cast<double>(r.edges)));
  Warnings warnings;

  const double setupS = setupSeconds(w, initial, workdir, warnings);
  // Span logs: [0] the writer, [1..] one per reader.
  std::vector<SpanLog> spans;
  for (int t = 0; t <= w.readers; ++t) spans.emplace_back(tracing, 1 + t);
  const fs::path liveDir = workdir / "live";
  const LiveResult live = runLive(w, initial, twin, r.batchEdges, r.seed, cli.seconds,
                                  liveDir, spans, clock, warnings, r.outcome);
  const WriterResult& wr = live.writer;
  const double restartS = restartSeconds(w, initial, live.finalCsr, liveDir,
                                         wr.sent.size(), workdir, warnings, r.outcome);

  r.outcome.count("submits", wr.sent.size(), wr.submitFailures,
                  std::to_string(wr.submitFailures) + " of " +
                      std::to_string(wr.sent.size()) + " submit() calls refused");
  std::uint64_t reads = 0;
  std::uint64_t readFailures = 0;
  std::string firstBadRead;
  std::vector<double> queryUs;
  for (const ReaderResult& rr : live.readers) {
    reads += rr.reads;
    readFailures += rr.failures;
    if (firstBadRead.empty()) firstBadRead = rr.firstFailure;
    for (const double ns : rr.queryNs) queryUs.push_back(ns / 1e3);
  }
  r.outcome.count("reads", reads, readFailures,
                  std::to_string(readFailures) + " of " + std::to_string(reads) +
                      " reads bad" + (readFailures ? ", first: " + firstBadRead : ""));

  const std::vector<double> visibleAt = joinVisibility(wr.sent.size(), live.publishes);
  std::vector<double> visibleMs;
  for (std::size_t i = 0; i < visibleAt.size(); ++i)
    if (!std::isnan(visibleAt[i])) visibleMs.push_back(visibleAt[i] - wr.dueMs[i]);

  MetricSet& m = r.metrics;
  m.add("setup_s", setupS, "s");
  m.addPercentile("visible_p50_ms", visibleMs, 50, "ms");
  m.addPercentile("visible_p90_ms", visibleMs, 90, "ms");
  m.addPercentile("query_p50_us", queryUs, 50, "us");

  if (tracing) {
    SpanLog replaySpans(true, 1 + w.readers + 1);
    tracedMetrics(w, initial, live, cli.seconds, workdir, spans[0], replaySpans, clock,
                  r.perLayer);
    r.perLayer.add("service.restart_s", restartS, "s");
    spans.push_back(std::move(replaySpans));
    for (const SpanLog& log : spans)
      r.spans.insert(r.spans.end(), log.spans().begin(), log.spans().end());
    r.self = selfTimes(r.spans);
  }

  {
    std::lock_guard<std::mutex> lock(warnings.mu);
    r.warnings = warnings.messages;
  }
  fs::remove_all(workdir);
  return r;
}

// ---------------------------------------------------------------------------
// Provenance and output
// ---------------------------------------------------------------------------

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) != 0 && eax >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long nproc() { return ::sysconf(_SC_NPROCESSORS_ONLN); }

std::string provenanceJson(const Cli& cli) {
  std::ostringstream o;
  o << "{\"build_type\": \"" << LFPR_E2E_BUILD_TYPE << "\", \"compiler\": \""
    << jsonEscape(__VERSION__) << "\", \"nproc\": " << nproc() << ", \"cpu_model\": \""
    << jsonEscape(cpuModel()) << "\", \"l3_bytes\": " << ::sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"solver_threads\": " << kSolverThreads << ", \"window_s\": " << cli.seconds
    << ", \"graph_scale\": " << kGraphScale << ", \"graph_seed\": " << kGraphSeed
    << ", \"cold_starts\": " << kColdStarts << ", \"restarts\": " << kRestarts << "}";
  return o.str();
}

void metricsJson(std::ostream& o, const MetricSet& m) {
  o << "{";
  for (std::size_t i = 0; i < m.values.size(); ++i)
    o << (i ? ", " : "") << "\"" << m.values[i].name << "\": {\"value\": "
      << num(m.values[i].value) << ", \"unit\": \"" << m.values[i].unit << "\"}";
  o << "}";
}

void stringsJson(std::ostream& o, const std::vector<std::string>& v) {
  o << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o << (i ? ", " : "") << "\"" << jsonEscape(v[i]) << "\"";
  o << "]";
}

bool passed(const WorkloadResult& r) {
  return r.outcome.failed == 0 && r.metrics.missing.empty() && r.perLayer.missing.empty();
}

void writeResults(const std::string& path, const Cli& cli,
                  const std::vector<WorkloadResult>& results) {
  std::ofstream o(path);
  if (!o) throw std::runtime_error("cannot write " + path);
  o << "{\"provenance\": " << provenanceJson(cli) << ",\n \"workloads\": [";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const WorkloadResult& r = results[k];
    const Workload& w = *r.w;
    o << (k ? ",\n  " : "\n  ") << "{\"name\": \"" << w.name << "\", \"seed\": " << r.seed
      << ", \"graph\": \"" << w.graph << "\", \"vertices\": " << r.vertices
      << ", \"edges\": " << r.edges << ", \"engine\": \"" << engineName(w.engine)
      << "\", \"load\": \"" << (w.load == Load::Open ? "open" : "closed")
      << "\", \"batches_per_s\": " << num(w.batchesPerSec)
      << ", \"outstanding\": " << w.outstanding << ", \"batch_edges\": " << r.batchEdges
      << ", \"reader_threads\": " << w.readers << ", \"query\": \"" << queryName(w.reads)
      << "\", \"durable\": " << (w.durable ? "true" : "false")
      << ",\n   \"correct\": " << (passed(r) ? "true" : "false")
      << ", \"attempted\": " << r.outcome.attempted << ", \"failed\": " << r.outcome.failed
      << ", \"error_rate\": "
      << num(static_cast<double>(r.outcome.failed) /
             static_cast<double>(std::max<std::uint64_t>(1, r.outcome.attempted)))
      << ",\n   \"checks\": [";
    for (std::size_t i = 0; i < r.outcome.checks.size(); ++i) {
      const auto& c = r.outcome.checks[i];
      o << (i ? ", " : "") << "{\"name\": \"" << c.name
        << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
        << jsonEscape(c.detail) << "\"}";
    }
    o << "],\n   \"missing\": ";
    std::vector<std::string> missing = r.metrics.missing;
    missing.insert(missing.end(), r.perLayer.missing.begin(), r.perLayer.missing.end());
    stringsJson(o, missing);
    o << ", \"warnings\": ";
    stringsJson(o, r.warnings);
    o << ",\n   \"metrics\": ";
    metricsJson(o, r.metrics);
    o << ",\n   \"per_layer\": ";
    metricsJson(o, r.perLayer);
    o << "}";
  }
  o << "\n]}\n";
}

void writeTrace(const std::string& path, const std::vector<WorkloadResult>& results) {
  std::ofstream o(path);
  if (!o) throw std::runtime_error("cannot write " + path);
  o << "{\"clock\": \"steady_clock ns since the workload started\",\n"
    << " \"fields\": [\"id\", \"parent\", \"step\", \"name\", \"start_ns\", \"end_ns\"],\n"
    << " \"workloads\": [";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const WorkloadResult& r = results[k];
    o << (k ? ",\n  " : "\n  ") << "{\"name\": \"" << r.w->name << "\", \"seed\": " << r.seed
      << ",\n   \"self_ms\": {";
    std::size_t i = 0;
    for (const auto& [name, t] : r.self)
      o << (i++ ? ", " : "") << "\"" << name << "\": {\"count\": " << t.count
        << ", \"total_ms\": " << num(t.totalMs) << ", \"self_ms\": " << num(t.selfMs) << "}";
    o << "},\n   \"spans\": [";
    for (std::size_t s = 0; s < r.spans.size(); ++s) {
      const Span& sp = r.spans[s];
      o << (s ? ",\n    " : "\n    ") << "[" << sp.id << ", " << sp.parent << ", "
        << sp.step << ", \"" << sp.name << "\", " << sp.startNs << ", " << sp.endNs << "]";
    }
    o << "]}";
  }
  o << "\n]}\n";
}

void printResult(const WorkloadResult& r) {
  for (const MetricSet* set : {&r.metrics, &r.perLayer})
    for (const Metric& m : set->values)
      std::printf("%s %s %.6g %s\n", r.w->name, m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s error_rate %.6g fraction\n", r.w->name,
              static_cast<double>(r.outcome.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, r.outcome.attempted)));
  for (const auto& c : r.outcome.checks)
    if (!c.ok) std::printf("%s CHECK FAILED %s: %s\n", r.w->name, c.name.c_str(), c.detail.c_str());
  for (const MetricSet* set : {&r.metrics, &r.perLayer})
    for (const std::string& miss : set->missing)
      std::printf("%s MISSING %s\n", r.w->name, miss.c_str());
  for (const std::string& warn : r.warnings)
    std::fprintf(stderr, "%s warning: %s\n", r.w->name, warn.c_str());
  if (!r.self.empty()) {
    std::printf("%s self time by span (ms):\n", r.w->name);
    for (const auto& [name, t] : r.self)
      std::printf("  %-36s count %8llu  total %10.2f  self %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.totalMs, t.selfMs);
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: lfpr_e2e --seconds N [--workload NAME[,NAME]] [--seed N]\n"
    "                [--trace PATH] [--out PATH] [--workdir DIR]\n"
    "workloads: stream-small, bulk-saturate, read-heavy-road, ppr-durable (default: all)\n";

[[noreturn]] void usageError(const std::string& what) {
  std::fprintf(stderr, "lfpr_e2e: error: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

template <typename T>
T parseNumber(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end)
    usageError(flag + " expects a non-negative integer, got '" + text + "'");
  return value;
}

Cli parseCli(int argc, char** argv) {
  Cli cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    const bool known = a == "--workload" || a == "--seed" || a == "--seconds" ||
                       a == "--trace" || a == "--out" || a == "--workdir";
    if (!known) usageError("unexpected argument '" + a + "'");
    if (i + 1 >= args.size()) usageError(a + " needs a value");
    const std::string& v = args[++i];
    if (a == "--workload") {
      std::stringstream names(v);
      std::string name;
      while (std::getline(names, name, ',')) {
        const auto it = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                     [&](const Workload& w) { return name == w.name; });
        if (it == std::end(kWorkloads)) usageError("unknown workload '" + name + "'");
        if (std::find(cli.workloads.begin(), cli.workloads.end(), &*it) !=
            cli.workloads.end())
          usageError("workload '" + name + "' given twice");
        cli.workloads.push_back(&*it);
      }
      if (cli.workloads.empty()) usageError("--workload needs at least one name");
    } else if (a == "--seed") {
      cli.seed = parseNumber<std::uint64_t>(a, v);
    } else if (a == "--seconds") {
      cli.seconds = parseNumber<int>(a, v);
      if (cli.seconds < 1 || cli.seconds > 600) usageError("--seconds must be 1..600");
    } else if (a == "--trace") {
      cli.tracePath = v;
    } else if (a == "--out") {
      cli.outPath = v;
    } else {
      cli.workdir = v;
    }
  }
  if (cli.seconds == 0) usageError("--seconds (the measured window) is required");
  if (cli.workloads.empty())
    for (const Workload& w : kWorkloads) cli.workloads.push_back(&w);
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parseCli(argc, argv);
  if (nproc() < 4)
    std::fprintf(stderr,
                 "lfpr_e2e: warning: %ld CPUs online; the load is sized for 4 "
                 "(2 solver threads, 1 writer, up to 2 readers)\n",
                 nproc());
  const fs::path workRoot =
      (cli.workdir.empty() ? fs::temp_directory_path() : fs::path(cli.workdir)) /
      ("lfpr-e2e-" + std::to_string(::getpid()));

  std::vector<WorkloadResult> results;
  bool ok = true;
  try {
    for (const Workload* w : cli.workloads) {
      results.push_back(runWorkload(*w, cli, workRoot / w->name));
      printResult(results.back());
      ok = ok && passed(results.back());
    }
    fs::remove_all(workRoot);
    if (!cli.outPath.empty()) writeResults(cli.outPath, cli, results);
    if (!cli.tracePath.empty()) writeTrace(cli.tracePath, results);
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(workRoot, ec);
    std::fprintf(stderr, "lfpr_e2e: error: %s\n", e.what());
    return 1;
  }
  return ok ? 0 : 1;
}
