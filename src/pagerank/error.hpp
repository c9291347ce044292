// Error metrics. The paper measures accuracy as the L-inf norm between an
// approach's ranks and reference ranks computed on the updated graph
// (Section 5.1.5).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

namespace lfpr {

/// max_i |a[i] - b[i]|; spans must have equal length.
double linfNorm(std::span<const double> a, std::span<const double> b);

/// sum_i |a[i] - b[i]|.
double l1Norm(std::span<const double> a, std::span<const double> b);

/// sum_i a[i] — with self-loops on every vertex PageRank mass is
/// conserved, so this should stay ~1.
double rankSum(std::span<const double> ranks);

/// L-inf distance from the true fixpoint implied by the synchronous
/// stopping rule "stop when no rank moved more than `tolerance` this
/// sweep": the remaining updates form a geometric series with ratio
/// alpha, so ||r - r*||_inf <= tolerance * alpha / (1 - alpha).
inline double syncToleranceBound(double tolerance, double alpha) noexcept {
  return tolerance * alpha / (1.0 - alpha);
}

/// Same for the asynchronous engines, whose per-vertex freeze decides on
/// deltas observed at different moments: a vertex may stop tolerance
/// short of its local fixpoint while its in-neighbours each still carry
/// that much error themselves, so the per-vertex error e satisfies
/// e <= tolerance + alpha * e, i.e. ||r - r*||_inf <= tolerance /
/// (1 - alpha). Tests multiply by a small empirical slack for scheduling
/// jitter (rollback stores may each inject up to one extra tolerance).
///
/// Dynamic Frontier wakeup. DF-LF, like DF-BB, marks a vertex's
/// out-neighbours affected when its rank moves by more than tau_f, but
/// unconverged only when it moves by more than `tolerance`. A run can
/// therefore end while an affected vertex w has not pulled an
/// in-neighbour's last move: w joined the frontier on that move (DF-BB:
/// during the last sweep), or had already cleared its flag. The bound
/// still holds. w's rank is exactly the pull r_w = base + alpha *
/// sum_u r^_u / d_u over the in-neighbour ranks r^ it read, so
///   |r_w - r*_w| <= alpha * max_u (|r^_u - r_u| + |r_u - r*_u|)
///               <= alpha * (lag + e),
/// where lag is the largest in-neighbour move w has not pulled, and the
/// in-weights sum_u 1/d_u are taken as <= 1, the idealisation behind
/// both bounds above. A move above tolerance sets w's flag, and the
/// flag is cleared only by a pull of w after the mark (clear-then-
/// reverify), so lag <= tolerance. Hence e <= alpha * (tolerance + e),
/// i.e. e <= tolerance * alpha / (1 - alpha): the DF-BB certificate
/// (syncToleranceBound), below this one by the factor alpha. A vertex
/// outside the frontier lags only by moves of at most tau_f, the
/// Section 4.5 assumption the wake rule does not change. Waking at
/// tau_f (lag <= tau_f) would meet a 1000x tighter bound than this
/// certificate, at the cost of iterating to tau_f. The model counts one
/// unpulled move per in-neighbour; a fast thread lapping a slow one can
/// leave several, so this is a model, not a proof, and the property
/// suite checks it (DfStepSequence: converged => error <= bound after
/// every step of multi-step runs, slack 1.0).
inline double asyncToleranceBound(double tolerance, double alpha) noexcept {
  return tolerance / (1.0 - alpha);
}

/// Monte-Carlo L1 error scale for the walk engine's *global* ranks
/// (Approach::MonteCarlo, R walks per vertex). Each vertex estimate
/// averages R independent geometric-length walks per root; summing the
/// per-vertex standard deviations over all vertices and applying
/// Cauchy-Schwarz with the walk revisit factor (1 + alpha) / (1 - alpha)
/// gives E[ ||r - r*||_1 ] <~ sqrt((1 + alpha) / R), independent of n.
/// The factor 3 is empirical headroom for revisit correlation on the
/// self-looped benchmark graphs and stride truncation.
///
/// Unlike syncToleranceBound / asyncToleranceBound (worst-case Section
/// 4.5 certificates), this is a STATISTICAL bound: the expected error
/// scale with a safety factor, not a guarantee on any single run.
inline double mcL1ErrorBound(double alpha, int walksPerVertex) noexcept {
  return 3.0 * std::sqrt((1.0 + alpha) / static_cast<double>(walksPerVertex));
}

/// Monte-Carlo error scale for one *personalized* score ppr_r(v) =
/// (1 - alpha) * visits / R. The visit count is a sum of per-walk visit
/// counts with per-walk variance <= E[count] * (1 + alpha) / (1 - alpha),
/// so sd(score) <= (1 - alpha) * sqrt(visits * (1+alpha)/(1-alpha)) / R
/// = sqrt((1-alpha)(1+alpha) * visits) / R; the factor 2 is ~2 sigma.
/// Statistical, like mcL1ErrorBound — not a worst-case certificate.
inline double mcPprErrorBound(double alpha, int walksPerVertex,
                              double visits) noexcept {
  return 2.0 *
         std::sqrt((1.0 - alpha) * (1.0 + alpha) * std::max(visits, 1.0)) /
         static_cast<double>(walksPerVertex);
}

}  // namespace lfpr
