#!/usr/bin/env python3
"""End-to-end RankService benchmark runner.

Builds the Release benchmark program bench/e2e/lfpr_e2e from the surrounding
checkout, runs its self-test, then runs workloads and checks outputs.

  python3 bench/e2e/run.py                    every workload, default seeds
  python3 bench/e2e/run.py --trace            traced run: per-layer metrics and
                                              span JSON next to the result file
  python3 bench/e2e/run.py --repeat 5 --out A.json
                                              5 passes, alternating workload
                                              order; median and quartiles
  python3 bench/e2e/run.py --agree A.json B.json
                                              do two --repeat sets agree within
                                              each metric's bound?
  python3 bench/e2e/run.py --workload stream-small --seed 3 --trace 0
                                              one run; the last line of stdout
                                              is its JSON result

Every run measures a window of BENCHMARK.json's run_seconds; --seconds is
accepted only with that value. Every run prints one `workload metric value
unit` line per metric. Build output, lfpr_e2e's own report and warnings go
to stderr. Everything is built and written under .bench_build/ in the
checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BENCHMARK = ROOT / "BENCHMARK.json"

BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 60
# Set-up, checks, restarts and (traced) the replay on top of the window.
RUN_OVERHEAD_S = 60


def die(message, code=1):
    print(f"run.py: error: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {BENCHMARK.name}: {e}")


def build():
    """Configure (once) and build lfpr_e2e and its self-test; returns bin dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no repository sources around {HERE.relative_to(ROOT)}: "
            "the benchmark builds the library from the checkout it sits in")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(BUILD), "-j", jobs,
                  "--target", "lfpr_e2e", "lfpr_e2e_selftest"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    try:
        done = subprocess.run([str(BUILD / "lfpr_e2e_selftest")], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=SELFTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("self-test timed out")
    if done.returncode != 0:
        die("self-test failed: the arithmetic behind the metrics is wrong")
    return BUILD


def provenance():
    """Commit (when the checkout is a git repository) and a digest of the
    sources lfpr_e2e is built from, which identifies a checkout that is not."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(HERE.iterdir())]
    for f in files:
        if f.is_file():
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_lfpr_e2e(bindir, workload, seed, seconds, trace_path=None):
    """One lfpr_e2e process for one workload; returns its result entry."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = runs / f"{workload}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [str(bindir / "lfpr_e2e"), "--workload", workload, "--seconds", str(seconds),
           "--out", str(out), "--workdir", str(BUILD / "work")]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=seconds * 2 + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: lfpr_e2e timed out")
    if not out.is_file():
        die(f"{workload}: lfpr_e2e exited {done.returncode} without a result")
    result = json.loads(out.read_text())
    out.unlink()
    entry = result["workloads"][0]
    # lfpr_e2e exits 1 for a failed check (the entry says so) and for
    # nothing else that still leaves a result file behind.
    if done.returncode != 0 and entry["correct"]:
        die(f"{workload}: lfpr_e2e exited {done.returncode}")
    entry["provenance"] = result["provenance"]
    return entry


def run_workload(bindir, name, seed, seconds, trace_dir=None):
    """Untraced run; with trace_dir also a traced run of the same seed whose
    per-layer metrics gain trace.overhead (traced over untraced visible_p50_ms)."""
    entry = run_lfpr_e2e(bindir, name, seed, seconds)
    if trace_dir is None:
        return entry
    trace_path = trace_dir / f"trace-{name}.json"
    traced = run_lfpr_e2e(bindir, name, seed, seconds, trace_path)
    base = entry["metrics"].get("visible_p50_ms")
    with_spans = traced["metrics"].get("visible_p50_ms")
    if base and with_spans:
        traced["per_layer"]["trace.overhead"] = {
            "value": with_spans["value"] / base["value"], "unit": "ratio"}
    traced["untraced_metrics"] = entry["metrics"]
    traced["trace_file"] = str(trace_path)
    traced["attempted"] += entry["attempted"]
    traced["failed"] += entry["failed"]
    traced["correct"] = traced["correct"] and entry["correct"]
    return traced


def print_metrics(entry, key):
    for name, m in entry[key].items():
        print(f"{entry['name']} {name} {m['value']:.6g} {m['unit']}")
    print(f"{entry['name']} error_rate {entry['error_rate']:.6g} fraction")
    for c in entry["checks"]:
        if not c["ok"]:
            print(f"{entry['name']} CHECK FAILED {c['name']}: {c['detail']}")
    for miss in entry["missing"]:
        print(f"{entry['name']} MISSING {miss}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def agree(bench, path_a, path_b):
    sets = []
    for p in (path_a, path_b):
        try:
            sets.append(json.loads(Path(p).read_text())["values"])
        except (OSError, ValueError, KeyError) as e:
            die(f"cannot read repeat set {p}: {e}")
    a, b = sets
    ok = True
    print(f"{'workload':16} {'metric':16} {'median A':>12} {'median B':>12} "
          f"{'diff':>7} {'bound':>6}  verdict")
    for w in bench["workloads"]:
        if w["name"] not in a and w["name"] not in b:
            continue  # neither set ran it
        for m in bench["end_to_end"]:
            va = a.get(w["name"], {}).get(m["name"])
            vb = b.get(w["name"], {}).get(m["name"])
            if not va or not vb:
                print(f"{w['name']:16} {m['name']:16} missing in "
                      f"{'A' if not va else 'B'}")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = abs(mb - ma) / ma
            good = diff <= m["bound"]
            ok = ok and good
            print(f"{w['name']:16} {m['name']:16} {ma:12.6g} {mb:12.6g} "
                  f"{diff:7.3f} {m['bound']:6.2f}  {'agree' if good else 'DISAGREE'}")
    return 0 if ok else 1


def parse_args(bench):
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    p.add_argument("--workload", help="comma-separated subset of: " + ", ".join(names))
    p.add_argument("--seed", type=int, help="seed of the batch stream and reader keys "
                   "(default: each workload's own)")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"],
                   help="must be BENCHMARK.json's run_seconds (%(default)s), "
                   "the one window every run measures")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: traced run, report per-layer metrics and write span JSON")
    p.add_argument("--repeat", type=int, default=1,
                   help="full passes, alternating workload order")
    p.add_argument("--out", help="result file (default: .bench_build/e2e/result.json)")
    p.add_argument("--agree", nargs=2, metavar=("A", "B"),
                   help="compare two --repeat result files against the bounds")
    args = p.parse_args()
    if args.workload:
        chosen = args.workload.split(",")
        for c in chosen:
            if c not in names:
                die(f"unknown workload '{c}' (known: {', '.join(names)})", 2)
        args.workloads = chosen
    else:
        args.workloads = names
    if args.seconds != bench["run_seconds"]:
        die(f"--seconds {args.seconds}: the window is fixed at BENCHMARK.json's "
            f"run_seconds ({bench['run_seconds']})", 2)
    if args.repeat < 1 or (args.seed is not None and args.seed < 0):
        die("--repeat must be positive, --seed non-negative", 2)
    return args


def main():
    bench = load_benchmark()
    args = parse_args(bench)
    if args.agree:
        sys.exit(agree(bench, *args.agree))

    bindir = build()
    out_path = Path(args.out) if args.out else BUILD / "result.json"
    trace_dir = out_path.parent if args.trace else None
    out_path.parent.mkdir(parents=True, exist_ok=True)
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    wanted = layer_names if args.trace else e2e_names
    metric_key = "per_layer" if args.trace else "metrics"

    entries = []
    values = {}
    for rep in range(args.repeat):
        order = args.workloads if rep % 2 == 0 else list(reversed(args.workloads))
        for name in order:
            seed = None if args.seed is None else args.seed + rep
            entry = run_workload(bindir, name, seed, args.seconds, trace_dir)
            print_metrics(entry, metric_key)
            sys.stdout.flush()
            entries.append(entry)
            for metric, m in entry[metric_key].items():
                values.setdefault(name, {}).setdefault(metric, []).append(m["value"])

    if args.repeat > 1:
        print(f"\n{'workload':16} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8}")
        for name in args.workloads:
            for metric in wanted:
                v = values.get(name, {}).get(metric)
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"{name:16} {metric:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.3f}")

    result = {"provenance": {**entries[0]["provenance"], **provenance(),
                             "seconds": args.seconds, "repeat": args.repeat,
                             "trace": bool(args.trace)},
              "runs": entries, "values": values}
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    ok = all(e["correct"] for e in entries)
    if len(args.workloads) == 1 and args.repeat == 1:
        entry = entries[0]
        missing = [n for n in wanted if n not in entry[metric_key]]
        if missing:
            die(f"{entry['name']}: no value for {', '.join(missing)}")
        print(json.dumps({
            "correct": bool(entry["correct"]),
            "attempted": int(entry["attempted"]),
            "failed": int(entry["failed"]),
            "metrics": {n: entry[metric_key][n] for n in wanted}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
