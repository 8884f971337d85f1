#!/usr/bin/env bash
# A/B the repository benchmark (BENCHMARK.json) between a base revision and
# this checkout's working tree.
#
#   scripts/ab.sh <rev> [--workloads a,b] [--pairs K] [--seconds S] [--trace 0|1]
#
# The base side is <rev> exported with `git archive` into a temporary
# directory and built there with its own CARGO_TARGET_DIR; the change side
# is the working tree this script sits in, built into its usual `target/`.
# Each pair runs both sides' `run.sh` once per workload, flipping which side
# goes first from one pair to the next. Per workload and metric it prints
# both medians, the change/base ratio, both min-max ranges, a verdict, and
# attempted/failed operations per side:
#
#   worse       the change median is worse by more than the metric's bound
#   better      the change wins >= 90 % of pairs and the medians differ by
#               more than the base runs' interquartile range
#   unresolved  a side's (max-min)/median exceeds the bound, unless every
#               change run beats, or trails, every base run
#   within      otherwise
#
# Metrics without a bound in BENCHMARK.json (the per-layer ones that
# `--trace 1` reports) get no verdict. Exit status: 0, or 1 when any
# verdict is `worse` or a run printed no result line. Temporary files go
# under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail

usage() {
    sed -n '5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
rev=$1
shift
workloads="" pairs=5 seconds="" trace=0
while [[ $# -gt 0 ]]; do
    case $1 in
    --workloads) workloads=${2:?}; shift 2 ;;
    --pairs) pairs=${2:?}; shift 2 ;;
    --seconds) seconds=${2:?}; shift 2 ;;
    --trace) trace=${2:?}; shift 2 ;;
    *) usage ;;
    esac
done
[[ $pairs =~ ^[1-9][0-9]*$ && $trace =~ ^[01]$ ]] || usage

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_json="$repo/BENCHMARK.json"
if [[ -z $workloads ]]; then
    workloads=$(jq -r '[.workloads[].name] | join(",")' "$bench_json")
fi
if [[ -z $seconds ]]; then
    seconds=$(jq -r '.run_seconds' "$bench_json")
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/bda-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/results"
git -C "$repo" archive --format=tar "$rev" | tar -x -C "$work/base"

# side name -> tree and target directory
declare -A tree=([base]="$work/base" [change]="$repo")
declare -A target=([base]="$work/target" [change]="${CARGO_TARGET_DIR:-$repo/target}")

build() {
    local side=$1
    echo "ab: building $side (${tree[$side]})" >&2
    (cd "${tree[$side]}" && export CARGO_TARGET_DIR="${target[$side]}" &&
        cargo build -q --release --offline -p bda-reactor --bin bda-served &&
        cargo build -q --release --offline \
            --manifest-path crates/bench/src/bin/bda-bench/Cargo.toml)
}
build base
build change

# One run of one side: the result object (run.sh's last stdout line) goes
# to results/<workload>.<side>.<pair>.json; an empty file marks a run that
# printed none.
run_one() {
    local side=$1 wl=$2 pair=$3
    local out="$work/results/$wl.$side.$pair.json"
    echo "ab: pair $pair/$pairs $wl $side" >&2
    (cd "${tree[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
        bash crates/bench/src/bin/bda-bench/run.sh --workload "$wl" \
        --seconds "$seconds" --trace "$trace" --out "$work/out-$side" \
        2>>"$work/$side.log" | tail -n 1 | grep '^{' >"$out") || true
}

IFS=, read -r -a wls <<<"$workloads"
for ((p = 1; p <= pairs; p++)); do
    for wl in "${wls[@]}"; do
        if ((p % 2)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do run_one "$side" "$wl" "$p"; done
    done
done

python3 - "$bench_json" "$work/results" "$pairs" "$workloads" <<'PY'
import json, statistics, sys
bench, results, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open(bench))
meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
bad = False

def load(wl, side):
    runs = []
    for p in range(1, pairs + 1):
        text = open(f"{results}/{wl}.{side}.{p}.json").read().strip()
        runs.append(json.loads(text) if text else None)
    return runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def verdict(name, base, chg):
    m = meta.get(name, {})
    bound, lower = m.get("bound"), m.get("better", "lower") == "lower"
    if bound is None:
        return "-"
    bm, cm = statistics.median(base), statistics.median(chg)
    worse_by = (cm - bm) if lower else (bm - cm)
    if bm and worse_by / abs(bm) > bound:
        return "worse"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, chg))
    q1, q3 = quartiles(base)
    if wins >= 0.9 * len(base) and abs(cm - bm) > q3 - q1:
        return "better"
    spread = lambda xs: (max(xs) - min(xs)) / abs(statistics.median(xs)) if statistics.median(xs) else 0
    apart = min(chg) > max(base) or max(chg) < min(base)
    if (spread(base) > bound or spread(chg) > bound) and not apart:
        return "unresolved"
    return "within"

for wl in workloads.split(","):
    sides = {s: load(wl, s) for s in ("base", "change")}
    print(f"\n== {wl} ({pairs} pairs) ==")
    for side, runs in sides.items():
        ok = [r for r in runs if r]
        att = sum(r["attempted"] for r in ok)
        fail = sum(r["failed"] for r in ok)
        missing = len(runs) - len(ok)
        bad |= missing > 0
        note = f", {missing} run(s) without a result" if missing else ""
        print(f"{side:>6}: attempted {att} failed {fail} ({fail / max(att, 1):.4f}){note}")
    both = [(b, c) for b, c in zip(sides["base"], sides["change"]) if b and c]
    if not both:
        continue
    names = [n for n in both[0][0]["metrics"] if n in both[0][1]["metrics"]]
    print(f"{'metric':<28}{'base med':>12}{'change med':>12}{'ratio':>8}"
          f"{'base min-max':>24}{'change min-max':>24}  verdict")
    for n in names:
        base = [b["metrics"][n]["value"] for b, _ in both]
        chg = [c["metrics"][n]["value"] for _, c in both]
        bm, cm = statistics.median(base), statistics.median(chg)
        ratio = f"{cm / bm:.3f}" if bm else "-"
        v = verdict(n, base, chg)
        bad |= v == "worse"
        rng = lambda xs: f"{min(xs):.6g}-{max(xs):.6g}"
        print(f"{n:<28}{bm:>12.6g}{cm:>12.6g}{ratio:>8}{rng(base):>24}{rng(chg):>24}  {v}")
sys.exit(1 if bad else 0)
PY
