#!/usr/bin/env bash
# The repo's benchmark: perfbench/run.py on each of its three workloads
# (fig-ct, fig-bia, verify).  Extra arguments pass through to every
# run; see perfbench/README.md for the metrics and the method.  To
# compare a change with its parent, run scripts/ab.sh REV WORKLOAD
# [PAIRS] [SECONDS] [FIRST_SEED]: alternating pairs of runs, with
# medians, quartiles and win counts per end-to-end metric.
#
# Usage: scripts/bench.sh [--seed N] [--seconds S] [--trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in fig-ct fig-bia verify; do
    echo "== perfbench/run.py --workload $workload"
    python3 perfbench/run.py --workload "$workload" "$@"
done
