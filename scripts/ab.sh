#!/usr/bin/env bash
# A/B benchmark of the working tree against a git revision: perfbench's
# five end-to-end metrics (all lower-is-better), one pair of runs per
# seed, alternating which side runs first so host drift hits both sides
# alike.
#
# Usage: scripts/ab.sh REV WORKLOAD [PAIRS] [SECONDS] [FIRST_SEED]
#   REV         the baseline revision (a commit, a branch, HEAD, ...)
#   WORKLOAD    fig-ct, fig-bia or verify
#   PAIRS       pairs of runs (default 10)
#   SECONDS     perfbench --seconds per run (default 30)
#   FIRST_SEED  the pairs run seeds FIRST_SEED..FIRST_SEED+PAIRS-1
#               (default 1); a later first seed checks a claim on
#               seeds held out while the change was developed
#
# REV's committed files are exported to a temporary directory with
# `git archive` (removed on exit, and nothing is registered with git),
# so only the working-tree side sees uncommitted changes.  Each run is
# `python3 perfbench/run.py --trace 0` in its own checkout.  Prints
# every pair's metrics, then per metric each side's median and
# quartiles, how many pairs the working tree won, the median gap (base
# minus change) divided by the base's quartile spread, and the claim
# verdict: `claim holds` when the working tree won at least 9 pairs in
# 10 and that ratio is above 1 (the gap exceeds the base's spread),
# else `claim fails`.  A gain claim can be read straight off that line.
# Exits 1 if any run is not `"correct": true`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh REV WORKLOAD [PAIRS] [SECONDS] [FIRST_SEED]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-30}"
first="${5:-1}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/base"

run_side() {  # run_side SIDE SEED: last perfbench line -> $work/SIDE-SEED.json
    local dir=.
    [[ "$1" == base ]] && dir="$work/base"
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace 0) \
        | tail -n 1 >"$work/$1-$2.json" || true
}

for ((seed = first; seed < first + pairs; seed++)); do
    if (((seed - first) % 2 == 0)); then
        run_side base "$seed"
        run_side change "$seed"
    else
        run_side change "$seed"
        run_side base "$seed"
    fi
    echo "pair $seed done" >&2
done

python3 - "$work" "$pairs" "$first" "$rev" "$workload" <<'EOF'
import json
import statistics
import sys

work, pairs, first, rev, workload = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), *sys.argv[4:])
SEEDS = range(first, first + pairs)
METRICS = ("wall_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
SIDES = ("base", "change")


def load(side, seed):
    try:
        with open(f"{work}/{side}-{seed}.json") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError):
        return {"correct": False, "metrics": {}}


runs = {(side, seed): load(side, seed) for side in SIDES for seed in SEEDS}
bad = [f"{side} seed {seed}" for (side, seed), run in sorted(runs.items())
       if run.get("correct") is not True]


def value(side, seed, metric):
    entry = runs[side, seed]["metrics"].get(metric)
    return None if entry is None else entry["value"]


print(f"A/B {workload}: base = {rev}, change = working tree, {pairs} pairs, "
      f"seeds {first}..{first + pairs - 1}")
print(f"{'pair':<5} {'side':<7} " + " ".join(f"{m:>12}" for m in METRICS))
for seed in SEEDS:
    for side in SIDES:
        cells = [value(side, seed, m) for m in METRICS]
        print(f"{seed:<5} {side:<7} " + " ".join(
            f"{c:>12.4f}" if c is not None else f"{'-':>12}" for c in cells))
print()
print(f"{'metric':<12} {'base median [q1, q3]':>30} "
      f"{'change median [q1, q3]':>30} {'wins':>8} {'gap/IQR':>8}  claim")
for metric in METRICS:
    cols = []
    quarts = {}  # side -> (q1, median, q3)
    for side in SIDES:
        vals = [v for seed in SEEDS
                if (v := value(side, seed, metric)) is not None]
        if not vals:
            cols.append(f"{'-':>30}")
            continue
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        med = statistics.median(vals)
        quarts[side] = q1, med, q3
        cols.append(f"{med:>12.4f} [{q1:.4f}, {q3:.4f}]".rjust(30))
    wins = sum(
        1 for seed in SEEDS
        if None not in (b := value("base", seed, metric),
                        c := value("change", seed, metric)) and c < b)
    ratio, holds = "-", False
    if len(quarts) == 2:
        q1, base_median, q3 = quarts["base"]
        gap = base_median - quarts["change"][1]
        iqr = q3 - q1
        ratio = f"{gap / iqr:.2f}" if iqr > 0 else "-"
        holds = 10 * wins >= 9 * pairs and gap > iqr
    print(f"{metric:<12} {cols[0]} {cols[1]} {f'{wins}/{pairs}':>8} "
          f"{ratio:>8}  claim {'holds' if holds else 'fails'}")
if bad:
    print("not correct: " + ", ".join(bad))
    sys.exit(1)
EOF
