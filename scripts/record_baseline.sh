#!/usr/bin/env bash
# Record a BENCH_*.json snapshot — the trajectory anchor perf PRs diff
# against (scripts/compare_bench.py). Runs the Table-2 dataset bench,
# the micro-kernel bench, and the RankService mixed-load bench from the
# Release preset and wraps their output plus the machine/config
# fingerprint into one JSON document.
#
# With LFPR_RECORD_SCALE2=1 it additionally runs the mapped-snapshot
# kernel group (BM_Mapped*) at LFPR_BENCH_SCALE=2 — the pull kernel on a
# working set larger than L3 — into a "bench_micro_kernels_scale2"
# section. Point LFPR_DATASET_DIR at a persistent cache first: the
# scale-2 snapshot generates once (minutes) and mmap-loads thereafter.
#
# Usage: scripts/record_baseline.sh [build-dir] [out.json]
#   build-dir defaults to build/release; out.json to BENCH_baseline.json
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build/release}"
out="${2:-$repo/BENCH_baseline.json}"

scale="${LFPR_BENCH_SCALE:-0}"
threads="${LFPR_BENCH_THREADS:-4}"
repeats="${LFPR_BENCH_REPEATS:-3}"
scale2="${LFPR_RECORD_SCALE2:-0}"
export LFPR_BENCH_SCALE="$scale" LFPR_BENCH_THREADS="$threads" LFPR_BENCH_REPEATS="$repeats"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$build/bench/bench_table2_static_datasets" > "$workdir/table2.txt"

# Microbenches run with repetitions; compare_bench.py reduces the
# per-repetition entries to min-of-repetitions, which damps the
# heap-placement jitter PR 4 documented (same binary, ~15% swings).
micro_json="$workdir/micro.json"
if [[ -x "$build/bench/bench_micro_kernels" ]]; then
  "$build/bench/bench_micro_kernels" \
    --benchmark_repetitions="$repeats" \
    --benchmark_format=json --benchmark_out="$micro_json" \
    --benchmark_out_format=json >/dev/null
else
  printf '{"skipped": "google-benchmark not available at build time"}' > "$micro_json"
fi

# Service bench (PR 6): mixed ingest+query load. Emits its own
# google-benchmark-compatible JSON (one entry per repetition), so the
# same min-of-repetitions reduction applies to ingest items/s and the
# query p50_ns/p99_ns latency counters.
service_json="$workdir/service.json"
"$build/bench/bench_service" --json "$service_json" > "$workdir/service.txt"

micro2_json=""
if [[ "$scale2" == "1" && -x "$build/bench/bench_micro_kernels" ]]; then
  micro2_json="$workdir/micro_scale2.json"
  LFPR_BENCH_SCALE=2 "$build/bench/bench_micro_kernels" \
    --benchmark_filter='BM_Mapped' \
    --benchmark_repetitions="$repeats" \
    --benchmark_format=json --benchmark_out="$micro2_json" \
    --benchmark_out_format=json >/dev/null
fi

commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
recorded="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

python3 - "$out" "$workdir/table2.txt" "$micro_json" "$commit" "$recorded" \
    "$scale" "$threads" "$repeats" "$service_json" "${micro2_json:-}" <<'PYEOF'
import json, os, platform, sys

(out, table2_path, micro_path, commit, recorded,
 scale, threads, repeats, service_path, micro2_path) = sys.argv[1:11]

with open(micro_path) as f:
    micro = json.load(f)

doc = {
    "recorded": recorded,
    "commit": commit,
    "config": {
        "LFPR_BENCH_SCALE": int(scale),
        "LFPR_BENCH_THREADS": int(threads),
        "LFPR_BENCH_REPEATS": int(repeats),
        "build": "Release",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    },
    "bench_table2_static_datasets": open(table2_path).read().splitlines(),
    "bench_micro_kernels": micro,
}
with open(service_path) as f:
    doc["bench_service"] = json.load(f)
if micro2_path:
    with open(micro2_path) as f:
        doc["bench_micro_kernels_scale2"] = json.load(f)
    doc["config"]["scale2_section"] = {
        "LFPR_BENCH_SCALE": 2,
        "benchmark_filter": "BM_Mapped",
        "note": "mapped-snapshot kernels on the >L3 scale-2 web stand-in",
    }
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote", out)
PYEOF
