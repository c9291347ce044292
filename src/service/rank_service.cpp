#include "service/rank_service.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "sched/cpu_placement.hpp"
#include "service/checkpoint.hpp"
#include "util/failpoint.hpp"
#include "util/io_retry.hpp"

namespace lfpr {

namespace {

/// Fold `batch` onto `merged` (marking union for a coalesced step).
void appendBatch(BatchUpdate& merged, const BatchUpdate& batch) {
  merged.deletions.insert(merged.deletions.end(), batch.deletions.begin(),
                          batch.deletions.end());
  merged.insertions.insert(merged.insertions.end(), batch.insertions.begin(),
                           batch.insertions.end());
}

}  // namespace

RankService::RankService(const CsrGraph& initial, ServiceOptions opt)
    : opt_(std::move(opt)),
      numVertices_(initial.numVertices()),
      state_(initial.numVertices()) {
  state_.seedUniform();

  // Recovery (when durability is on) runs synchronously before the
  // ingest thread exists: checkpoint load, journal scan + quarantine,
  // compaction. Nothing can append concurrently, so the journal's
  // single-threaded recovery phase really is single-threaded. The
  // resident graph comes from the newest checkpoint when one loads, else
  // from `initial` plus self-loops. When no self-loop had to be added,
  // graph_ and curr_ share that CSR's storage (a mapped checkpoint stays
  // mapped) until the first batch.
  std::unique_ptr<RankSnapshot> seed;
  if (opt_.durability.enabled()) seed = initDurability();
  if (!recoveredFromCheckpoint_) {
    graph_ = DynamicDigraph::fromCsr(initial);
    graph_.ensureSelfLoops();
  }
  curr_ = graph_.toCsr();

  if (!seed) {
    // Epoch-0 placeholder so readers never observe a null snapshot:
    // uniform ranks, honest converged=false and an infinite certificate.
    seed = std::make_unique<RankSnapshot>();
    seed->epoch = 0;
    seed->ranks.assign(numVertices_, numVertices_ > 0
                                         ? 1.0 / static_cast<double>(numVertices_)
                                         : 0.0);
    seed->publishedAt = std::chrono::steady_clock::now();
  }
  box_.publish(std::move(seed));

  ingest_ = std::thread([this] { runLoop(); });
}

std::unique_ptr<RankSnapshot> RankService::initDurability() {
  const DurabilityOptions& d = opt_.durability;
  std::filesystem::create_directories(d.directory);
  // A crashed writer's scratch files are dead weight (the service is the
  // directory's single writer); renames that did land are the live state.
  sweepStaleTmpFiles(d.directory);

  std::uint64_t ckptSeq = 0;
  std::unique_ptr<RankSnapshot> recovered;
  if (auto ckpt = loadNewestCheckpoint(d.directory, numVertices_, d.onWarning,
                                       opt_.solver.numThreads)) {
    // Resume as the checkpointed epoch: the graph, the warm ranks, and
    // the certificate are exactly a snapshot this service once
    // published, so republishing it is sound by construction.
    graph_ = DynamicDigraph::fromCsr(ckpt->graph);
    state_.seedRanks(ckpt->ranks);
    needFullResolve_ = false;
    nextEpoch_ = ckpt->epoch + 1;
    ckptSeq = ckpt->journalSeq;
    lastAppliedSeq_ = ckpt->journalSeq;
    batchesApplied_.store(ckpt->batchesApplied, std::memory_order_relaxed);
    edgesIngested_.store(ckpt->edgesIngested, std::memory_order_relaxed);
    lastPublishedBound_ = ckpt->toleranceBound;
    lastPublishedIterations_ = ckpt->iterations;
    recoveredFromCheckpoint_ = true;

    recovered = std::make_unique<RankSnapshot>();
    recovered->epoch = ckpt->epoch;
    recovered->ranks = std::move(ckpt->ranks);
    recovered->converged = true;
    recovered->iterations = ckpt->iterations;
    recovered->toleranceBound = ckpt->toleranceBound;
    recovered->batchesApplied = ckpt->batchesApplied;
    recovered->edgesIngested = ckpt->edgesIngested;
    recovered->publishedAt = std::chrono::steady_clock::now();
    publishedEpoch_.store(ckpt->epoch, std::memory_order_release);

    if (ckpt->walkSidecarQuarantined)
      walkSidecarsQuarantined_.fetch_add(1, std::memory_order_relaxed);
    if (ckpt->walkStore != nullptr) {
      // Resume the walk store instead of rebuilding — but only into a
      // service that will actually run it, with the exact config the
      // sidecar was built under. On any disagreement the store is
      // dropped here (lfMonteCarloStep would discard it anyway) and the
      // journal replay rebuilds from scratch.
      const detail::McConfig want{opt_.solver.mcWalksPerVertex,
                                  opt_.solver.mcMaxWalkLength,
                                  opt_.solver.mcSeed, opt_.solver.alpha};
      if (useMonteCarlo() && ckpt->walkStore->cfg == want &&
          ckpt->walkStore->n == numVertices_) {
        state_.monteCarlo = std::move(ckpt->walkStore);
        state_.monteCarloValid = true;
        walkResumes_.fetch_add(1, std::memory_order_relaxed);
        // The recovered snapshot regains its MC face: pprTopK serves
        // immediately, and mcFingerprint() pins the resumed store,
        // exactly as the pre-crash epoch did.
        recovered->monteCarlo = true;
        recovered->ppr = std::make_shared<const PprIndex>(
            detail::buildPprIndex(*state_.monteCarlo, opt_.solver.numThreads));
      } else if (d.onWarning) {
        d.onWarning(
            "checkpoint walk sidecar ignored: " +
            std::string(useMonteCarlo()
                            ? "its (seed, R, length, alpha) or vertex count "
                              "disagrees with the service options"
                            : "the service is not running StepEngine::"
                              "MonteCarlo") +
            "; the walk store will be rebuilt if needed");
      }
    }
  }

  IngestJournal::Options jopt;
  jopt.fsync = d.fsync;
  jopt.groupCommitWindow = d.groupCommitWindow;
  jopt.onWarning = d.onWarning;
  journal_ =
      std::make_unique<IngestJournal>(d.directory + "/journal", numVertices_, jopt);
  journal_->compactThrough(ckptSeq);
  replay_ = journal_->takeRecovered();

  // Replayed batches count as pending until their re-application is
  // republished — staleness() is honest about recovery lag.
  std::uint64_t edges = 0;
  for (const auto& r : replay_) edges += r.batch.size();
  pendingBatches_.store(replay_.size(), std::memory_order_relaxed);
  pendingEdges_.store(edges, std::memory_order_relaxed);
  return recovered;
}

RankService::~RankService() { stop(); }

bool RankService::submit(BatchUpdate batch) {
  detail::checkBatchEdges(batch, numVertices_, "RankService");
  const std::uint64_t edges = batch.size();
  std::unique_lock<std::mutex> lock(mutex_);
  notFullCv_.wait(lock, [&] {
    return stopping_ || draining_ ||
           degraded_.load(std::memory_order_relaxed) ||
           queue_.size() < opt_.queueCapacity;
  });
  if (stopping_ || draining_ || degraded_.load(std::memory_order_relaxed))
    return false;
  return enqueueLocked(std::move(lock), std::move(batch), edges);
}

bool RankService::trySubmit(BatchUpdate batch) {
  detail::checkBatchEdges(batch, numVertices_, "RankService");
  const std::uint64_t edges = batch.size();
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_ || draining_ || degraded_.load(std::memory_order_relaxed) ||
      queue_.size() >= opt_.queueCapacity)
    return false;
  return enqueueLocked(std::move(lock), std::move(batch), edges);
}

bool RankService::enqueueLocked(std::unique_lock<std::mutex> lock,
                                BatchUpdate&& batch, std::uint64_t edges) {
  // Write-ahead invariant: the journal append happens under the queue
  // lock, immediately before push_back — journal order IS apply order,
  // and a batch is never visible to the ingest thread before its bytes
  // are in the journal file.
  std::uint64_t seq = 0;
  if (journal_) {
    try {
      seq = journal_->append(batch);
      journaledBatches_.fetch_add(1, std::memory_order_relaxed);
    } catch (const FailPointAbort&) {
      throw;  // simulated process death surfaces to the submitter
    } catch (const io::IoError& e) {
      degrade(std::string("journal append failed: ") + e.what());
      return false;
    }
  }
  pendingBatches_.fetch_add(1, std::memory_order_relaxed);
  pendingEdges_.fetch_add(edges, std::memory_order_relaxed);
  queue_.push_back(Pending{std::move(batch), seq});
  lastSubmitCpu_ = currentCpu();
  queueCv_.notify_one();

  if (journal_ && opt_.durability.fsync == FsyncPolicy::GroupCommit) {
    // Bounded-latency ack: wait (outside the lock — other submitters
    // and the ingest thread keep moving) for the flusher to cover this
    // seq. A failed group sync degrades the service but cannot
    // un-accept the batch: it is already visible in apply order.
    lock.unlock();
    if (!journal_->waitDurable(seq))
      degrade("group-commit fsync failed");
  }
  return true;
}

void RankService::waitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return (idle_ && queue_.empty()) || stopping_; });
}

std::uint64_t RankService::waitForEpoch(std::uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] {
    return publishedEpoch_.load(std::memory_order_acquire) >= epoch || stopping_;
  });
  return publishedEpoch_.load(std::memory_order_acquire);
}

void RankService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stopFlag_.store(true, std::memory_order_relaxed);
  queueCv_.notify_all();
  notFullCv_.notify_all();
  idleCv_.notify_all();
  if (ingest_.joinable()) ingest_.join();
}

void RankService::drainAndStop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  queueCv_.notify_all();
  notFullCv_.notify_all();
  if (ingest_.joinable()) ingest_.join();
}

std::vector<double> RankService::ranks() const {
  const SnapshotView view = box_.acquire();
  return view->ranks;
}

double RankService::rank(VertexId v) const {
  const SnapshotView view = box_.acquire();
  return view->rank(v);
}

std::vector<std::pair<VertexId, double>> RankService::topK(std::size_t k) const {
  const SnapshotView view = box_.acquire();
  return view->topK(k);
}

std::vector<PprEntry> RankService::pprTopK(VertexId root, std::size_t k) const {
  const SnapshotView view = box_.acquire();
  if (view->ppr == nullptr) return {};
  return view->ppr->topK(root, k);
}

Staleness RankService::staleness() const {
  const SnapshotView view = box_.acquire();
  Staleness s;
  s.epoch = view->epoch;
  s.toleranceBound = view->toleranceBound;
  s.pendingBatches = pendingBatches_.load(std::memory_order_relaxed);
  s.pendingEdges = pendingEdges_.load(std::memory_order_relaxed);
  s.ageMs = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - view->publishedAt)
                .count();
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

ServiceStats RankService::stats() const {
  ServiceStats s;
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.batchesApplied = batchesApplied_.load(std::memory_order_relaxed);
  s.edgesIngested = edgesIngested_.load(std::memory_order_relaxed);
  s.solves = solves_.load(std::memory_order_relaxed);
  s.deltaPushSteps = deltaPushSteps_.load(std::memory_order_relaxed);
  s.monteCarloSteps = monteCarloSteps_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.failedSteps = failedSteps_.load(std::memory_order_relaxed);
  s.reclaimedSnapshots = box_.reclaimedCount();
  s.retiredSnapshots = box_.retiredCount();
  s.journaledBatches = journaledBatches_.load(std::memory_order_relaxed);
  s.replayedBatches = replayedBatches_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.walkCheckpoints = walkCheckpoints_.load(std::memory_order_relaxed);
  s.walkResumes = walkResumes_.load(std::memory_order_relaxed);
  s.walkSidecarsQuarantined =
      walkSidecarsQuarantined_.load(std::memory_order_relaxed);
  s.ioFailures = ioFailures_.load(std::memory_order_relaxed);
  s.journalQuarantinedBytes = journal_ ? journal_->quarantinedBytes() : 0;
  std::lock_guard<std::mutex> lock(solveTotalsMutex_);
  s.rankUpdates = rankUpdates_;
  s.protocolStats = protocolStats_;
  return s;
}

void RankService::accountSolve(const PageRankResult& result) {
  std::lock_guard<std::mutex> lock(solveTotalsMutex_);
  rankUpdates_ += result.rankUpdates;
  protocolStats_ += result.protocolStats;
}

void RankService::degrade(const std::string& why) {
  ioFailures_.fetch_add(1, std::memory_order_relaxed);
  if (!degraded_.exchange(true, std::memory_order_relaxed)) {
    if (opt_.durability.onWarning)
      opt_.durability.onWarning("durability degraded to serve-stale: " + why);
  }
  // Wake submitters blocked on a full queue so they observe the refusal.
  notFullCv_.notify_all();
}

void RankService::maybeCheckpoint(bool force) {
  if (!journal_) return;
  const std::uint64_t cadence = opt_.durability.checkpointEverySolves;
  if (!force && (cadence == 0 || publishesSinceCkpt_ < cadence)) return;
  // Only a published-clean state is checkpointable: needFullResolve_
  // means state_.ranks is NOT a certified fixpoint of curr_, and epoch 0
  // means nothing real was ever published.
  if (needFullResolve_ ||
      publishedEpoch_.load(std::memory_order_acquire) == 0)
    return;
  try {
    CheckpointData data;
    data.epoch = nextEpoch_ - 1;  // the epoch just published
    data.journalSeq = lastAppliedSeq_;
    data.batchesApplied = batchesApplied_.load(std::memory_order_relaxed);
    data.edgesIngested = edgesIngested_.load(std::memory_order_relaxed);
    data.iterations = lastPublishedIterations_;
    data.toleranceBound = lastPublishedBound_;
    data.ranks = state_.ranks.toVector();
    data.graph = curr_;
    // The walk store rides along whenever the resident one is live and
    // consistent with curr_ (monteCarloValid): restart then *resumes*
    // repairs from this store instead of replaying the journal through a
    // from-scratch rebuild.
    if (useMonteCarlo() && state_.monteCarloValid &&
        state_.monteCarlo != nullptr)
      data.walks = detail::mcSerializeStore(*state_.monteCarlo);
    writeCheckpoint(opt_.durability.directory, data);
    pruneCheckpoints(opt_.durability.directory, data.epoch);
    journal_->resetIfCovered(lastAppliedSeq_);
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    if (data.walks) walkCheckpoints_.fetch_add(1, std::memory_order_relaxed);
    publishesSinceCkpt_ = 0;
  } catch (const FailPointAbort&) {
    // Simulated kill mid-checkpoint: every later durability site aborts
    // too (the registry's killed latch), so acknowledge-after-death is
    // impossible. The ingest thread itself survives to keep the test
    // process controllable.
    degrade("checkpoint aborted by fail-point kill");
  } catch (const std::exception& e) {
    const auto* ioe = dynamic_cast<const io::IoError*>(&e);
    if (ioe != nullptr && ioe->diskFull()) {
      degrade(std::string("checkpoint failed: ") + e.what());
    } else {
      // Transient-looking failure: skip this cadence tick, warn, retry
      // at the next one. The journal still covers everything.
      ioFailures_.fetch_add(1, std::memory_order_relaxed);
      if (opt_.durability.onWarning)
        opt_.durability.onWarning(std::string("checkpoint skipped: ") +
                                  e.what());
    }
  }
}

std::unique_ptr<FaultInjector> RankService::nextFault() {
  const std::uint64_t idx = solves_.fetch_add(1, std::memory_order_relaxed);
  return opt_.faultFactory ? opt_.faultFactory(idx) : nullptr;
}

void RankService::publishConverged(const PageRankResult& result) {
  auto snap = std::make_unique<RankSnapshot>();
  snap->epoch = nextEpoch_++;
  snap->ranks = state_.ranks.toVector();
  snap->converged = true;
  snap->iterations = result.iterations;
  snap->toleranceBound = result.toleranceBound;  // §4.5 or MC-statistical
  snap->batchesApplied = batchesApplied_.load(std::memory_order_relaxed);
  snap->edgesIngested = edgesIngested_.load(std::memory_order_relaxed);
  snap->publishedAt = std::chrono::steady_clock::now();
  if (result.monteCarlo && state_.monteCarloValid &&
      state_.monteCarlo != nullptr) {
    // MC epochs also publish the personalized index, built here from the
    // quiescent store — readers only ever see the immutable flattened
    // copy. The determinism fingerprint is derived from that copy on
    // demand (RankSnapshot::mcFingerprint), never on this path.
    snap->monteCarlo = true;
    snap->ppr = std::make_shared<const PprIndex>(
        detail::buildPprIndex(*state_.monteCarlo, opt_.solver.numThreads));
  }
  if (opt_.onPublish) opt_.onPublish(*snap);
  const std::uint64_t epoch = snap->epoch;
  lastPublishedBound_ = snap->toleranceBound;
  lastPublishedIterations_ = snap->iterations;
  box_.publish(std::move(snap));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  ++publishesSinceCkpt_;

  // Everything folded into the graph so far is now reader-visible.
  pendingBatches_.fetch_sub(unpublishedBatches_, std::memory_order_relaxed);
  pendingEdges_.fetch_sub(unpublishedEdges_, std::memory_order_relaxed);
  unpublishedBatches_ = 0;
  unpublishedEdges_ = 0;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    publishedEpoch_.store(epoch, std::memory_order_release);
  }
  idleCv_.notify_all();
}

bool RankService::useMonteCarlo() const noexcept {
  return opt_.stepEngine == ServiceOptions::StepEngine::MonteCarlo;
}

bool RankService::useDeltaPush(const BatchUpdate& merged) const {
  switch (opt_.stepEngine) {
    case ServiceOptions::StepEngine::Pull: return false;
    case ServiceOptions::StepEngine::MonteCarlo: return false;
    case ServiceOptions::StepEngine::DeltaPush: return true;
    case ServiceOptions::StepEngine::Auto: {
      // Route by the merged batch's edge fraction: the push engine owns
      // every batch up to the dense band (see BENCH_pr8.json and the
      // README routing table), where the pull sweep takes over.
      const auto graphEdges = static_cast<double>(curr_.numEdges());
      if (graphEdges <= 0.0) return false;
      const double fraction = static_cast<double>(merged.size()) / graphEdges;
      return fraction <= ServiceOptions::kDeltaPushMaxFraction;
    }
  }
  return false;
}

bool RankService::stepOnce(std::vector<Pending>&& group) {
  // Fold the group into the graph. prev/curr share the vertex set by
  // construction; the merged edge list is the marking-phase input.
  const CsrGraph prev = curr_;
  BatchUpdate merged;
  for (Pending& p : group) {
    graph_.applyBatch(p.batch);
    batchesApplied_.fetch_add(1, std::memory_order_relaxed);
    edgesIngested_.fetch_add(p.batch.size(), std::memory_order_relaxed);
    ++unpublishedBatches_;
    unpublishedEdges_ += p.batch.size();
    if (p.seq > lastAppliedSeq_) lastAppliedSeq_ = p.seq;
    appendBatch(merged, p.batch);
  }
  if (!group.empty()) curr_ = graph_.toCsr();

  PageRankOptions solveOpt = opt_.solver;
  solveOpt.stopRequested = &stopFlag_;

  PageRankResult result;
  {
    const auto fault = nextFault();
    if (needFullResolve_ && useMonteCarlo()) {
      // MC full resolve = rebuild the walk store on the current graph
      // (any folded batches are already in curr_). Invalidate first so
      // the step cannot mistake prev-consistent walks for current ones.
      state_.monteCarloValid = false;
      monteCarloSteps_.fetch_add(1, std::memory_order_relaxed);
      result = detail::lfMonteCarloStep(state_, curr_, curr_, BatchUpdate{},
                                        solveOpt, fault.get(), "service");
    } else if (needFullResolve_) {
      // Initial solve, or a previous step exhausted recovery: ND
      // semantics — every vertex unconverged, current ranks as seed.
      result = detail::lfFullStep(state_, curr_, solveOpt, fault.get());
    } else if (useMonteCarlo()) {
      // Walk repair against the prev/curr pair. If an exact recovery
      // re-solve invalidated the store since the last MC step, the step
      // rebuilds on prev first, then repairs — same published contract.
      monteCarloSteps_.fetch_add(1, std::memory_order_relaxed);
      result = detail::lfMonteCarloStep(state_, prev, curr_, merged, solveOpt,
                                        fault.get(), "service");
    } else if (useDeltaPush(merged)) {
      deltaPushSteps_.fetch_add(1, std::memory_order_relaxed);
      result = detail::lfDeltaPushStep(state_, prev, curr_, merged, solveOpt,
                                       fault.get(), "service");
    } else {
      result = detail::lfDynamicStep(state_, prev, curr_, merged, solveOpt,
                                     fault.get(), opt_.traverse,
                                     opt_.expandFrontier, "service");
    }
  }
  accountSolve(result);
  if (result.stopped) return false;

  // Service-level crash recovery: an unconverged step (crashed workers,
  // iteration cap) is re-solved from scratch semantics before readers
  // ever see it. Until something converges, the last epoch stays
  // published.
  int attempt = 0;
  while (!result.converged && attempt < opt_.maxRecoveryAttempts) {
    ++attempt;
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t solveIndex =
        solves_.load(std::memory_order_relaxed);  // index nextFault will use
    const auto fault = nextFault();
    result = detail::lfFullStep(state_, curr_, solveOpt, fault.get());
    accountSolve(result);
    if (opt_.onRecovery) opt_.onRecovery(solveIndex, attempt, result.converged);
    if (result.stopped) return false;
  }

  if (result.converged) {
    needFullResolve_ = false;
    publishConverged(result);
    maybeCheckpoint(/*force=*/false);
  } else {
    // Carry the debt: batches stay folded in, next step solves fully.
    needFullResolve_ = true;
    failedSteps_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool RankService::replayRecovered() {
  if (replay_.empty()) return true;
  const std::size_t maxGroup =
      std::max<std::size_t>(opt_.maxBatchesPerStep, 1);
  std::vector<Pending> group;
  for (auto& r : replay_) {
    replayedBatches_.fetch_add(1, std::memory_order_relaxed);
    group.push_back(Pending{std::move(r.batch), r.seq});
    if (group.size() >= maxGroup) {
      if (!stepOnce(std::move(group))) return false;
      group.clear();
    }
  }
  if (!group.empty() && !stepOnce(std::move(group))) return false;
  replay_.clear();
  replay_.shrink_to_fit();
  // Checkpoint the recovered state so a crash loop cannot replay the
  // same tail forever (each restart's replay work is bounded by one
  // cadence window, not the journal's full history).
  maybeCheckpoint(/*force=*/true);
  return true;
}

void RankService::runLoop() {
  // Initial full solve (epoch 1) before any batch is consumed — unless
  // recovery already republished a checkpointed epoch, whose ranks are a
  // certified fixpoint already.
  if (!recoveredFromCheckpoint_ && !stepOnce({})) return;
  // Journal-tail replay (no-op without durability): re-apply batches
  // that were acknowledged but not yet checkpointed, through the same
  // step path a live ingest uses.
  if (!replayRecovered()) return;

  while (true) {
    std::vector<Pending> group;
    int submitCpu = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      idle_ = true;
      idleCv_.notify_all();
      queueCv_.wait(lock, [&] {
        return stopping_ || draining_ || !queue_.empty();
      });
      if (stopping_) return;  // hard stop abandons queued batches
      if (queue_.empty()) return;  // draining and drained
      idle_ = false;
      const std::size_t take =
          std::min(queue_.size(), std::max<std::size_t>(opt_.maxBatchesPerStep, 1));
      group.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      submitCpu = lastSubmitCpu_;
    }
    notFullCv_.notify_all();
    // Woken onto the submitter's CPU, this thread would stay there and
    // share it with a submitter that keeps working, while other CPUs
    // idle (see sched/cpu_placement.hpp). Step somewhere else.
    if (submitCpu >= 0 && currentCpu() == submitCpu) leaveCpu(submitCpu);
    if (!stepOnce(std::move(group))) return;
  }
}

}  // namespace lfpr
