// Figure 7: runtime of the six approaches across batch-update fractions
// (the paper sweeps 1e-8..1e-1; our smallest graphs make 1e-8 a
// sub-single-edge batch, so the sweep starts at 1e-7 and the generator
// clamps to >= 1 update). Reports:
//   (a) per-graph runtimes,
//   (b) the geometric-mean runtime across graphs with DFLF speedup labels
//       over StaticLF and NDLF, and
//   (c) the L-inf error of DFLF/DFBB/NDLF against reference ranks.
//
// Paper shape: DFLF beats everything up to a batch fraction of ~1e-3
// (on average 12.6x/5.4x/12.0x/4.6x over StaticBB/NDBB/StaticLF/NDLF),
// then crosses below ND/Static at large batches where nearly all
// vertices end up affected; DF does best on sparse road/k-mer graphs and
// worst on dense social graphs; error stays within a small band around
// the iteration tolerance.
//
// PR 8 adds a DFLF_push series — the delta-push residual engine
// (Approach::DeltaPush) — targeting the mid-density gap (~1e-5..1e-3)
// where the dense sweep's per-visit re-pulls and O(|V|) iterations do
// redundant work: push cost scales with the injected mass (touched
// edges decay geometrically per hop), so it should win the middle of
// the sweep and concede both ends.
//
// PR 9 adds an MC_repair series — one steady-state walk-repair step of
// the resident Monte Carlo store (detail::lfMonteCarloStep against a
// persistent LfEngineState, primed untimed) per fraction — measuring
// walk-repair throughput vs the exact re-solves across the whole sweep.
// It should dominate below ~1e-5 (repair cost scales with walks through
// the batch's changed vertices, O(1) expected per edge) and converge
// toward rebuild cost at large fractions where most walks are claimed.
// Its error column (MC_l1_err, table (c)) is an L1 distance and sits at
// the engine's *statistical* mcL1ErrorBound scale — orders of magnitude
// above the exact engines' tolerance-band L-inf numbers by design;
// comparable only against mcL1ErrorBound(alpha, R), not tau.
//
// Exit status: non-zero when any DFLF result's L-inf error exceeds the
// toleranceBound certificate it reports (error.hpp). A correctness
// check, not a timing gate; the offending graph, fraction, error and
// bound are printed.
#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "pagerank/detail/engine_step.hpp"
#include "pagerank/reference.hpp"

using namespace lfpr;

namespace {

constexpr Approach kApproaches[] = {Approach::StaticBB, Approach::NDBB,
                                    Approach::DFBB,     Approach::StaticLF,
                                    Approach::NDLF,     Approach::DFLF};

constexpr double kFractions[] = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::printHeader(
      "Figure 7: batch-fraction sweep, all approaches, 12 graphs",
      "DFLF fastest up to ~1e-3 |E| (paper avg: 12.6x/5.4x/12.0x/4.6x over "
      "StaticBB/NDBB/StaticLF/NDLF), crossover above 1e-3; best on road/kmer, "
      "worst on social; DF error in a narrow band near the tolerance",
      cfg);

  const auto specs = staticDatasets(cfg.scale);

  // runtimes[approach][fraction] -> per-graph times for the geomean.
  std::map<Approach, std::map<double, std::vector<double>>> runtimes;
  std::map<double, std::vector<double>> dflfPushMs, dflfPushErr;
  std::map<double, std::vector<double>> mcRepairMs, mcL1Err;
  std::map<double, std::vector<double>> dflfErr, dfbbErr, ndlfErr;
  std::map<double, std::vector<double>> affectedShare;
  std::vector<std::string> boundViolations;
  double worstErrOverBound = 0.0;

  for (std::size_t di = 0; di < specs.size(); ++di) {
    const auto& spec = specs[di];
    auto base = bench::loadGraph(spec, cfg);
    const auto opt = bench::benchOptions(cfg, base.numVertices());

    Table table({"batch_frac", "StaticBB", "NDBB", "DFBB", "StaticLF", "NDLF",
                 "DFLF", "DFLF_push", "MC_repair", "DFLF_affected",
                 "DFLF_err"});

    // MC walk-repair options: R=8, stride 32 keeps the walk store at
    // ~1 KB/vertex so the 12-graph sweep stays RAM-bounded; accuracy at
    // this R is the statistical mcL1ErrorBound(alpha, 8), reported in
    // table (c) as MC_l1_err.
    PageRankOptions mcOpt = opt;
    mcOpt.mcWalksPerVertex = 8;
    mcOpt.mcMaxWalkLength = 32;

    // Static runs do not depend on the batch: time them once per graph.
    const auto currForStatic = base.toCsr();
    double staticBBMs = 0.0, staticLFMs = 0.0;
    staticBBMs = bench::timedMs(cfg, [&] { staticBB(currForStatic, opt); });
    staticLFMs = bench::timedMs(cfg, [&] { staticLF(currForStatic, opt); });

    for (double fraction : kFractions) {
      const auto scenario =
          makeScenario(base, fraction, 1000 * di + static_cast<std::uint64_t>(
                                                       -std::log10(fraction)),
                       opt);
      const auto ref = referenceRanks(scenario.curr, opt.alpha);

      std::map<Approach, double> ms;
      ms[Approach::StaticBB] = staticBBMs;
      ms[Approach::StaticLF] = staticLFMs;
      PageRankResult dfLfResult, dfBbResult, ndLfResult;
      for (Approach a :
           {Approach::NDBB, Approach::NDLF, Approach::DFBB, Approach::DFLF}) {
        PageRankResult r;
        ms[a] = bench::timedMs(cfg, [&] { r = runOnScenario(a, scenario, opt); });
        if (a == Approach::DFLF) dfLfResult = r;
        if (a == Approach::DFBB) dfBbResult = r;
        if (a == Approach::NDLF) ndLfResult = r;
      }

      // Delta-push residual engine (PR 8 mid-density series).
      PageRankResult pushResult;
      const double pushMs = bench::timedMs(cfg, [&] {
        pushResult = runOnScenario(Approach::DeltaPush, scenario, opt);
      });
      dflfPushMs[fraction].push_back(pushMs);
      dflfPushErr[fraction].push_back(linfNorm(pushResult.ranks, ref));

      // Monte Carlo steady-state walk repair (PR 9 series): prime the
      // store untimed (build on prev + absorb the batch once), then time
      // pure repair steps — each a new epoch re-walking the segments
      // through the batch's changed vertices, the cost the resident
      // service pays per ingested batch.
      detail::LfEngineState mcState(scenario.curr.numVertices());
      detail::lfMonteCarloStep(mcState, scenario.prev, scenario.curr,
                               scenario.batch, mcOpt, nullptr, "fig7");
      const double mcMs = bench::timedMs(cfg, [&] {
        detail::lfMonteCarloStep(mcState, scenario.prev, scenario.curr,
                                 scenario.batch, mcOpt, nullptr, "fig7");
      });
      mcRepairMs[fraction].push_back(mcMs);
      mcL1Err[fraction].push_back(l1Norm(mcState.ranks.toVector(), ref));

      const double dfLfErr = linfNorm(dfLfResult.ranks, ref);
      worstErrOverBound =
          std::max(worstErrOverBound, dfLfErr / dfLfResult.toleranceBound);
      if (!(dfLfErr <= dfLfResult.toleranceBound))
        boundViolations.push_back(
            spec.name + " batch_frac=" + Table::sci(fraction, 0) +
            " DFLF_err=" + Table::sci(dfLfErr, 2) +
            " toleranceBound=" + Table::sci(dfLfResult.toleranceBound, 2));

      for (Approach a : kApproaches) runtimes[a][fraction].push_back(ms[a]);
      dflfErr[fraction].push_back(dfLfErr);
      dfbbErr[fraction].push_back(linfNorm(dfBbResult.ranks, ref));
      ndlfErr[fraction].push_back(linfNorm(ndLfResult.ranks, ref));
      affectedShare[fraction].push_back(
          static_cast<double>(dfLfResult.affectedVertices) /
          static_cast<double>(scenario.curr.numVertices()));

      table.addRow({Table::sci(fraction, 0), bench::fmtMs(ms[Approach::StaticBB]),
                    bench::fmtMs(ms[Approach::NDBB]), bench::fmtMs(ms[Approach::DFBB]),
                    bench::fmtMs(ms[Approach::StaticLF]),
                    bench::fmtMs(ms[Approach::NDLF]), bench::fmtMs(ms[Approach::DFLF]),
                    bench::fmtMs(pushMs), bench::fmtMs(mcMs),
                    Table::count(dfLfResult.affectedVertices),
                    Table::sci(dfLfErr, 1)});
      if (fraction == kFractions[0])
        bench::printProtocolStats(spec.name + "/DFLF_push", pushResult);
    }
    std::cout << "--- " << spec.name << " (" << spec.family << ") ---\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "=== (b) geometric-mean runtime across graphs ===\n";
  Table meanTable({"batch_frac", "StaticBB", "NDBB", "DFBB", "StaticLF", "NDLF",
                   "DFLF", "DFLF_push", "MC_repair", "DFLF/StaticLF",
                   "DFLF/NDLF", "push/best_pull",
                   "affected_share"});
  for (double fraction : kFractions) {
    std::map<Approach, double> gm;
    for (Approach a : kApproaches) gm[a] = geomean(runtimes[a][fraction]);
    const double gmPush = geomean(dflfPushMs[fraction]);
    const double gmMc = geomean(mcRepairMs[fraction]);
    // "push/best_pull" > 1 means delta-push beat the DFLF pull sweep at
    // this fraction — the band-ownership readout behind BENCH_pr8.json.
    meanTable.addRow(
        {Table::sci(fraction, 0), bench::fmtMs(gm[Approach::StaticBB]),
         bench::fmtMs(gm[Approach::NDBB]), bench::fmtMs(gm[Approach::DFBB]),
         bench::fmtMs(gm[Approach::StaticLF]), bench::fmtMs(gm[Approach::NDLF]),
         bench::fmtMs(gm[Approach::DFLF]), bench::fmtMs(gmPush),
         bench::fmtMs(gmMc),
         Table::num(gm[Approach::StaticLF] / gm[Approach::DFLF], 2) + "x",
         Table::num(gm[Approach::NDLF] / gm[Approach::DFLF], 2) + "x",
         Table::num(gm[Approach::DFLF] / gmPush, 2) + "x",
         Table::num(mean(affectedShare[fraction]), 2)});
  }
  meanTable.print(std::cout);

  std::cout << "\n=== (c) mean L-inf error vs reference ===\n";
  Table err({"batch_frac", "DFBB_err", "DFLF_err", "DFLF_push_err",
             "MC_l1_err", "NDLF_err", "tolerance_note"});
  for (double fraction : kFractions) {
    err.addRow({Table::sci(fraction, 0), Table::sci(mean(dfbbErr[fraction]), 1),
                Table::sci(mean(dflfErr[fraction]), 1),
                Table::sci(mean(dflfPushErr[fraction]), 1),
                Table::sci(mean(mcL1Err[fraction]), 1),
                Table::sci(mean(ndlfErr[fraction]), 1),
                "tau = 1e-3/|V|: the paper's tolerance relative to 1/|V|"});
  }
  err.print(std::cout);

  if (!boundViolations.empty()) {
    std::cout << "\nFAIL: DFLF error above its reported toleranceBound:\n";
    for (const std::string& v : boundViolations) std::cout << "  " << v << '\n';
    return 1;
  }
  std::cout << "\ncheck: every DFLF error is within its toleranceBound "
               "(worst DFLF_err/toleranceBound = "
            << Table::num(worstErrOverBound, 2) << ")\n";
  return 0;
}
