#!/usr/bin/env bash
# The one-command CI gate: everything a PR must pass, in the order
# that fails fastest.
#   1. style lint (ruff, when installed; config in pyproject.toml)
#   2. tier-1 test suite (pytest tests/ — includes the engine's
#      failure-rule tests and the crash/resume store tests)
#   3. the domain lint: `python -m repro ctcheck --all` — the
#      constant-time checker over every built-in IR program and every
#      workload's registered DS linearization sets (exits 1 on
#      error-severity findings), populating a verdict cache; a second
#      warm pass must then serve every target from the cache
#      (re-checking anything means the content-addressed keys or the
#      cache round-trip regressed)
#   4. the symbolic relational smoke (scripts/symrel_smoke.py):
#      every builtin's native variant must be refuted with a
#      replay-confirmed secret pair (or, for the speculative fixture,
#      refuted only by the speculative pass) and every mitigated
#      variant proved
#   5. the automatic repair smoke (scripts/repair_smoke.py): every
#      leaky builtin must auto-repair to CT-PROVED within the 1.5x
#      overhead budget — a residual CT-REL exits nonzero
#   6. a perf smoke: the benchmark's self-tests, then one short
#      `verify` run that must end with `"correct": true` (a smoke that
#      the measured paths still run and match their digests, not a
#      stable number; scripts/bench.sh runs the full benchmark)
#
# Usage: scripts/ci.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping style lint"
fi

echo "== tier-1 tests (pytest tests/)"
python -m pytest tests/ -q "$@"

echo "== constant-time check (python -m repro ctcheck --all)"
VCACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$VCACHE_DIR"' EXIT
python -m repro ctcheck --all --vcache "$VCACHE_DIR"

echo "== ctcheck warm verdict-cache pass (must re-check nothing)"
warm_err="$(python -m repro ctcheck --all --vcache "$VCACHE_DIR" 2>&1 >/dev/null)"
echo "$warm_err"
grep -q "0 target(s) checked" <<<"$warm_err"

echo "== symbolic relational smoke (scripts/symrel_smoke.py)"
python scripts/symrel_smoke.py

echo "== automatic repair smoke (scripts/repair_smoke.py)"
python scripts/repair_smoke.py

echo "== perf smoke (perfbench self-tests + a 1 s verify run)"
python3 perfbench/selftest.py
bench_out="$(python3 perfbench/run.py --workload verify --seconds 1)"
echo "$bench_out" | tail -n 1
tail -n 1 <<<"$bench_out" | grep -q '"correct": true'

echo "== CI gate passed"
