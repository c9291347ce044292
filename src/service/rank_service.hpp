// Long-lived PageRank service (the PR 6 tentpole): a resident engine
// that continuously ingests edge batches and publishes rank vectors to
// concurrent readers at convergence boundaries.
//
// The one-shot solvers (pagerank.hpp) answer "rank this snapshot"; the
// service answers "keep this graph ranked". One ingest thread owns the
// mutable graph and a persistent LfEngineState (engine_step.hpp) and
// runs the paper's Dynamic Frontier protocol batch after batch — warm
// ranks carried across steps, only the affected subset re-iterated.
// Each converged solve is published as an immutable RankSnapshot via
// SnapshotBox's epoch/RCU pointer flip, so readers:
//
//   - never block an ingest step, and never block each other;
//   - never observe torn or rolled-back ranks: every query answers
//     against one published snapshot, and unconverged / crashed /
//     stopped solves are simply never published — the previous epoch
//     stays current (readers keep serving it) until a converged solve
//     replaces it;
//   - get the §4.5 certificate with every answer: snapshot.toleranceBound
//     bounds the published ranks' distance from the exact fixpoint of
//     the graph at that epoch.
//
// Crash recovery is a service-level property (the engines' chunked
// sweeps absorb threads dying *inside* a step; this layer handles
// whole steps failing): a step that comes back unconverged — injected
// crash ate too many workers, iteration cap, DNF — triggers up to
// maxRecoveryAttempts full re-solves (ND semantics: all vertices
// unconverged, current ranks as the warm seed). If those also fail the
// step's batches stay folded into the graph, the next step runs as a
// full solve instead of an incremental one, and readers keep the last
// published epoch throughout.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dynamic_digraph.hpp"
#include "graph/types.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/options.hpp"
#include "sched/fault.hpp"
#include "service/ingest_journal.hpp"
#include "service/snapshot_box.hpp"

namespace lfpr {

/// Opt-in restart durability (the PR 7 tentpole). With a directory set,
/// the service write-ahead journals every accepted batch, checkpoints
/// its state every `checkpointEverySolves` converged solves, and on
/// construction recovers from whatever the directory holds: newest valid
/// checkpoint + journal-tail replay, torn tails quarantined rather than
/// fatal. Off (empty directory) the service is exactly the PR 6
/// in-memory service — no extra I/O on any path.
struct DurabilityOptions {
  /// Empty = durability off. The directory is service-owned and
  /// single-writer: journal, checkpoint pairs, and quarantine files all
  /// live here.
  std::string directory;

  /// What submit()'s acceptance promises (see IngestJournal).
  FsyncPolicy fsync = FsyncPolicy::Batch;

  /// GroupCommit ack-latency bound.
  std::chrono::milliseconds groupCommitWindow{5};

  /// Checkpoint cadence in converged solves; 0 = only the post-recovery
  /// checkpoint. Each checkpoint prunes its predecessor and resets the
  /// journal once every journaled batch is covered.
  std::uint64_t checkpointEverySolves = 8;

  /// Diagnostics channel (torn-tail quarantine, invalid checkpoints,
  /// degradation to serve-stale). May be called from the constructor,
  /// the ingest thread, submitters, or the journal flusher.
  std::function<void(const std::string&)> onWarning;

  [[nodiscard]] bool enabled() const noexcept { return !directory.empty(); }
};

struct ServiceOptions {
  /// Engine configuration for every solve the service runs. numThreads,
  /// tolerance, chunkSize etc. all apply; stopRequested is owned
  /// by the service and must be left null.
  PageRankOptions solver;

  /// Marking semantics for incremental steps: Dynamic Frontier (the
  /// paper's best engine) by default; set traverse for Dynamic Traversal.
  bool traverse = false;
  bool expandFrontier = true;

  /// Which engine family runs the incremental steps (full solves and
  /// recovery re-solves always use the pull engine — their frontier is
  /// the whole graph, far outside delta-push's band).
  ///
  ///   Pull       lfDynamicStep with traverse/expandFrontier above.
  ///   DeltaPush  lfDeltaPushStep: residual forward-push (PR 8). DF
  ///              marking by construction; `traverse` is ignored.
  ///   Auto       route each step by the merged batch's edge fraction:
  ///              DeltaPush up to kDeltaPushMaxFraction, Pull above it.
  ///              Push beats the pull sweep across the mid band
  ///              (BENCH_pr8.json) and on the tiniest batches too, where
  ///              a 9-edge step on a ~1 M-edge web graph costs ~1.3 ms
  ///              pushed against ~34 ms pulled (README routing table).
  ///   MonteCarlo lfMonteCarloStep (PR 9): resident random-walk store,
  ///              approximate ranks + personalized PPR (pprTopK). Runs
  ///              the *initial* solve too (walk build), and publishes
  ///              statistical mcL1ErrorBound certificates instead of
  ///              §4.5 bounds; recovery re-solves still use the exact
  ///              pull engine.
  enum class StepEngine { Pull, DeltaPush, Auto, MonteCarlo };
  StepEngine stepEngine = StepEngine::Pull;

  /// Auto-routing bound: the largest batch fraction (deletions +
  /// insertions after coalescing, over current graph edges) that runs
  /// as a DeltaPush step.
  static constexpr double kDeltaPushMaxFraction = 1e-3;

  /// Bounded ingest queue: submit() blocks when full (backpressure).
  std::size_t queueCapacity = 256;

  /// Batches coalesced into one solve step when the queue runs ahead of
  /// the engine. Marking the union of several batches against the
  /// (pre-first, post-last) snapshot pair is conservative — every vertex
  /// any batch touched is marked — so coalescing trades per-batch
  /// latency for throughput without weakening the frontier invariant.
  std::size_t maxBatchesPerStep = 16;

  /// Full re-solves attempted when a step comes back unconverged.
  int maxRecoveryAttempts = 2;

  /// Called by the ingest thread just before a snapshot becomes
  /// visible to readers.
  std::function<void(const RankSnapshot&)> onPublish;

  /// Called by the ingest thread after each recovery attempt.
  std::function<void(std::uint64_t solveIndex, int attempt, bool recovered)>
      onRecovery;

  /// Test hook: supplies a FaultInjector for solve number `solveIndex`
  /// (0 = the initial full solve; recovery re-solves get their own
  /// indices). Return null for a healthy solve.
  std::function<std::unique_ptr<FaultInjector>(std::uint64_t solveIndex)>
      faultFactory;

  /// Restart durability; off by default.
  DurabilityOptions durability;
};

/// Reader-visible freshness report: which epoch answers queries, how
/// tight its certificate is, and how much ingested-but-unpublished work
/// is outstanding.
struct Staleness {
  std::uint64_t epoch = 0;
  /// §4.5 bound of the snapshot readers currently see.
  double toleranceBound = 0.0;
  /// Batches/edges accepted by submit() but not yet reflected in the
  /// published snapshot (queued, in-flight, or folded into a
  /// yet-unconverged step).
  std::uint64_t pendingBatches = 0;
  std::uint64_t pendingEdges = 0;
  /// Milliseconds since the current snapshot was published.
  double ageMs = 0.0;
  /// Serve-stale mode: an unrecoverable durability failure (disk full,
  /// exhausted write retries) stopped batch acceptance; readers keep the
  /// last epoch and this report keeps climbing.
  bool degraded = false;
};

struct ServiceStats {
  std::uint64_t publishes = 0;
  std::uint64_t batchesApplied = 0;
  std::uint64_t edgesIngested = 0;
  std::uint64_t solves = 0;
  /// Incremental steps routed to the delta-push engine (StepEngine::
  /// DeltaPush always; StepEngine::Auto when the merged batch was at
  /// most kDeltaPushMaxFraction of the graph).
  std::uint64_t deltaPushSteps = 0;
  /// Steps (initial build + incremental repairs) run by the Monte Carlo
  /// walk engine (StepEngine::MonteCarlo).
  std::uint64_t monteCarloSteps = 0;
  std::uint64_t recoveries = 0;
  /// Steps that exhausted recovery and carried a full re-solve forward.
  std::uint64_t failedSteps = 0;
  std::uint64_t reclaimedSnapshots = 0;
  std::size_t retiredSnapshots = 0;
  /// Engine work summed over every solve the ingest thread ran, recovery
  /// re-solves and unpublished steps included: PageRankResult::
  /// rankUpdates and ProtocolStats, added once per solve.
  std::uint64_t rankUpdates = 0;
  ProtocolStats protocolStats;

  // Durability (all 0 when DurabilityOptions is off).
  std::uint64_t journaledBatches = 0;
  /// Journal-tail batches re-applied by restart recovery.
  std::uint64_t replayedBatches = 0;
  std::uint64_t checkpoints = 0;
  /// Checkpoints that carried a walk-store sidecar (MonteCarlo engine
  /// with a valid resident store at checkpoint time).
  std::uint64_t walkCheckpoints = 0;
  /// Restarts that resumed the walk store from a sidecar instead of
  /// rebuilding it through the journal (0 or 1 per service lifetime).
  std::uint64_t walkResumes = 0;
  /// Walk sidecars quarantined to *.walks.torn by recovery (announced by
  /// the meta but failed verification; the store was rebuilt instead).
  std::uint64_t walkSidecarsQuarantined = 0;
  /// Unrecoverable durability I/O failures (each one degrades or is a
  /// skipped checkpoint).
  std::uint64_t ioFailures = 0;
  /// Torn bytes quarantined by the journal scan at construction.
  std::uint64_t journalQuarantinedBytes = 0;
};

class RankService {
 public:
  /// Starts the ingest thread. The vertex set is fixed for the service's
  /// lifetime (the engines require prev/curr snapshots to share it);
  /// self-loops are ensured on construction per the paper's dead-end
  /// elimination. Readers immediately see an epoch-0 placeholder
  /// (uniform ranks, toleranceBound = infinity); epoch 1 — the initial
  /// full solve — follows asynchronously. Use waitForEpoch(1) to block
  /// until the first real ranking is up.
  ///
  /// With opt.durability enabled, recovery runs first and synchronously:
  /// stale tmp sweep, newest-valid-checkpoint load, journal scan with
  /// torn-tail quarantine, journal compaction. When a checkpoint exists
  /// readers immediately see its epoch (certificate intact — the ranks
  /// ARE a previously published snapshot) instead of the placeholder,
  /// and the ingest thread replays the journal tail through the normal
  /// DF step path before consuming new batches. Under StepEngine::
  /// MonteCarlo, a checkpoint whose walk sidecar verifies additionally
  /// resumes the resident walk store (the recovered snapshot serves
  /// pprTopK immediately and the journal-tail replay runs as walk
  /// repairs, not a rebuild); a torn/missing/mismatched sidecar is
  /// quarantined and the store rebuilds from the journal instead —
  /// rank recovery is identical either way. `initial` must be the
  /// same graph a clean run would have started from; it seeds the very
  /// first run and is superseded by the checkpoint afterwards.
  explicit RankService(const CsrGraph& initial, ServiceOptions opt = {});

  /// stop()s and joins.
  ~RankService();

  RankService(const RankService&) = delete;
  RankService& operator=(const RankService&) = delete;

  // --- ingest side -------------------------------------------------

  /// Enqueue a batch; blocks while the queue is full. Returns false if
  /// the service is stopping (the batch was not accepted). Throws
  /// std::out_of_range on edges outside the vertex set.
  bool submit(BatchUpdate batch);

  /// Non-blocking submit: false when the queue is full or stopping.
  bool trySubmit(BatchUpdate batch);

  /// Block until the queue is drained and no step is in flight.
  void waitIdle();

  /// Block until the published epoch reaches `epoch` (or the service
  /// stops). Returns the epoch readers currently see.
  std::uint64_t waitForEpoch(std::uint64_t epoch);

  /// Cooperative hard stop: aborts any in-flight solve at its next
  /// iteration boundary (nothing partial is ever published), abandons
  /// queued batches, joins the ingest thread. Idempotent. Readers keep
  /// the last published epoch — views stay valid until the service is
  /// destroyed.
  void stop();

  /// Finish every queued batch, publish, then stop. Idempotent.
  void drainAndStop();

  // --- reader side (all wait-free after per-thread registration) ---

  /// Pin the current snapshot. All queries through the view answer
  /// against one consistent epoch.
  [[nodiscard]] SnapshotView snapshot() const { return box_.acquire(); }

  /// Copy of the current rank vector.
  [[nodiscard]] std::vector<double> ranks() const;

  [[nodiscard]] double rank(VertexId v) const;

  [[nodiscard]] std::vector<std::pair<VertexId, double>> topK(std::size_t k) const;

  /// Personalized PageRank as seen from `root` (StepEngine::MonteCarlo
  /// only): top-k visited vertices of the published walk-store epoch,
  /// each score carrying its statistical mcPprErrorBound. Served through
  /// the same SnapshotBox path as ranks — wait-free for registered
  /// readers, consistent with snapshot()->epoch, never blocking ingest.
  /// Empty when the current snapshot has no PPR index (exact engines, or
  /// the epoch-0 placeholder).
  [[nodiscard]] std::vector<PprEntry> pprTopK(VertexId root, std::size_t k) const;

  [[nodiscard]] Staleness staleness() const;

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] VertexId numVertices() const noexcept { return numVertices_; }

  /// Epoch of the most recently published snapshot.
  [[nodiscard]] std::uint64_t publishedEpoch() const noexcept {
    return publishedEpoch_.load(std::memory_order_acquire);
  }

  /// True once an unrecoverable durability failure switched the service
  /// to serve-stale (submit/trySubmit refuse; readers unaffected).
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

 private:
  /// A queued batch plus its journal seq (0 = not journaled).
  struct Pending {
    BatchUpdate batch;
    std::uint64_t seq = 0;
  };

  void runLoop();
  /// One solve step over `group` (empty = initial/carried full solve).
  /// Returns false when a stop request ended the solve.
  bool stepOnce(std::vector<Pending>&& group);
  /// Engine routing for one incremental step (ServiceOptions::stepEngine).
  [[nodiscard]] bool useDeltaPush(const BatchUpdate& merged) const;
  [[nodiscard]] bool useMonteCarlo() const noexcept;
  void publishConverged(const PageRankResult& result);
  /// Add one solve's engine counters to the cumulative totals.
  void accountSolve(const PageRankResult& result);
  [[nodiscard]] std::unique_ptr<FaultInjector> nextFault();

  // Durability path (no-ops when opt_.durability is off).
  [[nodiscard]] std::unique_ptr<RankSnapshot> initDurability();
  bool enqueueLocked(std::unique_lock<std::mutex> lock, BatchUpdate&& batch,
                     std::uint64_t edges);
  bool replayRecovered();
  void maybeCheckpoint(bool force);
  void degrade(const std::string& why);

  ServiceOptions opt_;
  const VertexId numVertices_;

  // Ingest-thread-owned solve state.
  DynamicDigraph graph_;
  CsrGraph curr_;
  detail::LfEngineState state_;
  bool needFullResolve_ = true;  // initial solve is a full one
  std::uint64_t nextEpoch_ = 1;
  std::uint64_t unpublishedBatches_ = 0;
  std::uint64_t unpublishedEdges_ = 0;

  // Durability state. journal_ doubles as the "durability on" flag;
  // replay_ / recoveredFromCheckpoint_ are set by the constructor and
  // consumed by the ingest thread before it touches the queue.
  std::unique_ptr<IngestJournal> journal_;
  std::vector<IngestJournal::Record> replay_;
  bool recoveredFromCheckpoint_ = false;
  std::uint64_t lastAppliedSeq_ = 0;       // ingest thread only
  std::uint64_t publishesSinceCkpt_ = 0;   // ingest thread only
  double lastPublishedBound_ = 0.0;        // ingest thread only
  int lastPublishedIterations_ = 0;        // ingest thread only

  SnapshotBox box_;

  // Queue + lifecycle.
  mutable std::mutex mutex_;
  std::condition_variable queueCv_;    // ingest thread waits for work
  std::condition_variable notFullCv_;  // submitters wait for room
  std::condition_variable idleCv_;     // waitIdle / waitForEpoch
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool draining_ = false;
  bool idle_ = false;
  int lastSubmitCpu_ = -1;  // CPU of the latest enqueue (currentCpu())
  std::atomic<bool> stopFlag_{false};  // wired into PageRankOptions::stopRequested

  // Counters (readable from any thread).
  std::atomic<std::uint64_t> publishedEpoch_{0};
  std::atomic<std::uint64_t> pendingBatches_{0};
  std::atomic<std::uint64_t> pendingEdges_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> batchesApplied_{0};
  std::atomic<std::uint64_t> edgesIngested_{0};
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> deltaPushSteps_{0};
  std::atomic<std::uint64_t> monteCarloSteps_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> failedSteps_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> journaledBatches_{0};
  std::atomic<std::uint64_t> replayedBatches_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> walkCheckpoints_{0};
  std::atomic<std::uint64_t> walkResumes_{0};
  std::atomic<std::uint64_t> walkSidecarsQuarantined_{0};
  std::atomic<std::uint64_t> ioFailures_{0};
  // Cumulative engine counters (accountSolve). A mutex, not atomics, so
  // stats() reads them as one set that ends on a solve boundary.
  mutable std::mutex solveTotalsMutex_;
  std::uint64_t rankUpdates_ = 0;
  ProtocolStats protocolStats_;

  std::thread ingest_;
};

}  // namespace lfpr
