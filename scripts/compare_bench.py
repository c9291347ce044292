#!/usr/bin/env python3
"""Diff two benchmark JSON files.

Accepts either wrapped BENCH_*.json documents (scripts/record_baseline.sh
output, google-benchmark results under a section key, default
"bench_micro_kernels") or raw google-benchmark --benchmark_out files
(top-level "benchmarks" array) — CI and local runs share this one code
path. Compares per benchmark name and prints a speedup table (new
items/s over old items/s, falling back to old cpu_time over new cpu_time
for benchmarks without an items_per_second counter). Benchmarks present
in only one file are listed but not compared.

Runs recorded with --benchmark_repetitions contain one entry per
repetition under the same name; those are reduced to the
min-of-repetitions aggregate (max items/s, min cpu_time, min
p50_ns/p99_ns) before comparing. Scale-0 micro-kernel numbers are heap-placement sensitive —
PR 4 measured a 1182->1351 M/s swing from malloc luck alone — and the
fastest repetition is the run least disturbed by placement and
scheduling noise, which is what makes the tightened CI regression floor
hold. google-benchmark's own aggregate rows (mean/median/stddev) are
ignored.

Usage:
  scripts/compare_bench.py OLD.json NEW.json [options]

Options:
  --section NAME      wrapped-document key to read (default
                      bench_micro_kernels; e.g. bench_micro_kernels_scale2
                      for the scale-2 mapped-kernel section)
  --require NAME:RATIO
                      fail unless benchmark NAME achieved a speedup of at
                      least RATIO — e.g. the PR 2 acceptance gate:
                        --require BM_RankPullKernel:1.3
  --require-new-ratio A/B:MIN
                      fail unless, WITHIN the new file, items/s of
                      benchmark A is at least MIN x items/s of benchmark
                      B. Host-invariant (both sides ran on the same
                      machine), so it gates algorithmic relationships —
                      e.g. the mid-band engine acceptance:
                        --require-new-ratio \\
                          'BM_MidBandEngineDeltaPush/BM_MidBandEngineDense:1.1'
                      (A and B may contain '/'; the split is at the last
                      ':' and the '/' separating A from B is the one
                      before the second benchmark name, found by matching
                      against the recorded names.)
  --max-regression R  fail if any compared benchmark (restricted by
                      --filter) regressed below (1 - R) x the old rate;
                      R=0.65 tolerates a 65% loss — a generous hard gate
                      that still catches complexity-class regressions on
                      noisy shared CI runners
  --filter REGEX      restrict the --max-regression gate to matching
                      benchmark names (the table always shows everything)
"""

import argparse
import json
import re
import sys


def load_results(path, section):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:  # raw --benchmark_out file
        micro = doc
    else:  # wrapped BENCH_*.json document
        micro = doc.get(section, {})
        if "benchmarks" not in micro:
            sys.exit(f"{path}: no google-benchmark results at top level or under "
                     f"{section!r} (recorded without libbenchmark-dev?)")
    out = {}
    for b in micro["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev aggregate rows
        name = b["name"]
        prev = out.get(name)
        if prev is None:
            out[name] = dict(b)
            continue
        # Repetition of an already-seen benchmark: keep the best rate /
        # fastest time (min-of-repetitions). Latency percentiles (the
        # bench_service p50_ns/p99_ns counters) reduce the same way: the
        # lowest-percentile repetition is the least scheduler-disturbed.
        for key, better in (("items_per_second", max), ("cpu_time", min),
                            ("real_time", min), ("p50_ns", min),
                            ("p99_ns", min)):
            if key in b and key in prev:
                prev[key] = better(prev[key], b[key])
            elif key in b:
                prev[key] = b[key]
    return doc, out


def speedup(old, new):
    o_items, n_items = old.get("items_per_second"), new.get("items_per_second")
    if o_items and n_items:
        return n_items / o_items, "items/s"
    o_t, n_t = old.get("cpu_time"), new.get("cpu_time")
    if o_t and n_t:
        return o_t / n_t, "cpu_time"
    return None, None


def fmt_rate(b):
    items = b.get("items_per_second")
    if items:
        return f"{items / 1e6:10.1f}M/s"
    return f"{b.get('cpu_time', float('nan')):10.0f}{b.get('time_unit', 'ns')}"


def fmt_percentiles(b):
    """Secondary latency columns for benchmarks that record them."""
    p50, p99 = b.get("p50_ns"), b.get("p99_ns")
    if p50 is None and p99 is None:
        return ""
    return (f"  p50={p50 / 1e3:.2f}us" if p50 is not None else "") + \
           (f" p99={p99 / 1e3:.2f}us" if p99 is not None else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--section", default="bench_micro_kernels",
                    help="wrapped-document key (default: %(default)s)")
    ap.add_argument("--require", action="append", default=[], metavar="NAME:RATIO",
                    help="fail unless NAME speeds up by at least RATIO")
    ap.add_argument("--require-new-ratio", action="append", default=[],
                    metavar="A/B:MIN",
                    help="fail unless new items/s of A >= MIN x new items/s of B")
    ap.add_argument("--max-regression", type=float, default=None, metavar="R",
                    help="fail if any gated benchmark falls below (1-R)x old")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="restrict --max-regression to matching names")
    args = ap.parse_args()

    old_doc, old = load_results(args.old, args.section)
    new_doc, new = load_results(args.new, args.section)

    print(f"old: {args.old}  (commit {old_doc.get('commit', '?')}, "
          f"recorded {old_doc.get('recorded', '?')})")
    print(f"new: {args.new}  (commit {new_doc.get('commit', '?')}, "
          f"recorded {new_doc.get('recorded', '?')})")
    print()
    name_w = max((len(n) for n in set(old) | set(new)), default=4)
    print(f"{'benchmark':<{name_w}}  {'old':>12} {'new':>12} {'speedup':>8}  basis")
    print("-" * (name_w + 45))

    shared = [n for n in old if n in new]
    ratios = {}
    for name in shared:
        ratio, basis = speedup(old[name], new[name])
        if ratio is not None:
            ratios[name] = ratio
        ratio_s = f"{ratio:7.2f}x" if ratio is not None else "      ??"
        print(f"{name:<{name_w}}  {fmt_rate(old[name]):>12} {fmt_rate(new[name]):>12} "
              f"{ratio_s}  {basis or '-'}{fmt_percentiles(new[name])}")
    for name in sorted(set(old) - set(new)):
        print(f"{name:<{name_w}}  {fmt_rate(old[name]):>12} {'(gone)':>12}")
    for name in sorted(set(new) - set(old)):
        print(f"{name:<{name_w}}  {'(new)':>12} {fmt_rate(new[name]):>12}")

    failed = []
    for req in args.require:
        try:
            name, ratio_s = req.rsplit(":", 1)
            want = float(ratio_s)
        except ValueError:
            sys.exit(f"bad --require {req!r}: expected NAME:RATIO")
        if name not in old or name not in new:
            failed.append(f"{name}: missing from one of the files")
            continue
        got = ratios.get(name)
        if got is None or got < want:
            failed.append(f"{name}: wanted >= {want:.2f}x, got "
                          f"{'n/a' if got is None else f'{got:.2f}x'}")

    for req in args.require_new_ratio:
        try:
            pair, min_s = req.rsplit(":", 1)
            want = float(min_s)
        except ValueError:
            sys.exit(f"bad --require-new-ratio {req!r}: expected A/B:MIN")
        # A and B may themselves contain '/': find the split whose halves
        # are both recorded benchmark names.
        split = None
        for idx in (i for i, c in enumerate(pair) if c == "/"):
            a, b = pair[:idx], pair[idx + 1:]
            if a in new and b in new:
                split = (a, b)
                break
        if split is None:
            failed.append(f"--require-new-ratio {pair!r}: no split into two "
                          f"benchmarks present in {args.new}")
            continue
        a, b = split
        a_items, b_items = new[a].get("items_per_second"), new[b].get("items_per_second")
        if not a_items or not b_items:
            failed.append(f"{pair}: missing items_per_second")
            continue
        got = a_items / b_items
        if got < want:
            failed.append(f"{a} vs {b}: wanted >= {want:.2f}x, got {got:.2f}x")
        else:
            print(f"\nratio {a} / {b} = {got:.2f}x (>= {want:.2f}x)")

    if args.max_regression is not None:
        floor = 1.0 - args.max_regression
        pattern = re.compile(args.filter) if args.filter else None
        gated = [n for n in shared if pattern is None or pattern.search(n)]
        if not gated:
            failed.append(f"--max-regression: no benchmark matches "
                          f"--filter {args.filter!r}")
        for name in gated:
            got = ratios.get(name)
            if got is not None and got < floor:
                failed.append(f"{name}: regressed to {got:.2f}x "
                              f"(floor {floor:.2f}x from --max-regression "
                              f"{args.max_regression})")

    if failed:
        print("\nFAILED requirements:", file=sys.stderr)
        for f in failed:
            print(f"  {f}", file=sys.stderr)
        return 1
    if args.require or args.require_new_ratio or args.max_regression is not None:
        checks = (len(args.require) + len(args.require_new_ratio) +
                  (1 if args.max_regression is not None else 0))
        print(f"\nall {checks} requirement(s) met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
