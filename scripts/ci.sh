#!/usr/bin/env bash
# The one-command CI gate: everything a PR must pass, in the order
# that fails fastest.
#   1. style lint (ruff, when installed; config in pyproject.toml);
#      without ruff, scripts/check_imports.py, an offline check for
#      imported names a module never uses (ruff's F401)
#   2. tier-1 test suite (pytest tests/ — includes the engine's
#      failure-rule tests and the crash-and-re-run store tests)
#   3. the domain lint: `python -m repro ctcheck --all --json` — the
#      constant-time checker over every built-in IR program and every
#      workload's registered DS linearization sets (exits 1 on
#      error-severity findings), populating a verdict cache; a second
#      warm pass must then serve every target from the cache and print
#      byte-identical JSON (re-checking anything, or any output
#      difference, means the content-addressed keys or the store
#      round-trip regressed).  The same cold-then-warm round trip runs
#      for `ctcheck --all --symbolic --spec-window 2 --repair --json`
#      through a second verdict cache: each run must exit exactly 1
#      (the native builtins leak by design) with JSON that parses to
#      `exit_code` 1 and all 13 targets checked, so a crash cannot
#      pass, and the warm run must re-check nothing and print
#      byte-identical JSON
#   4. an on-disk result-cache round trip: fig9 (24 simulations) from a
#      fresh working directory fills `.repro_results/records.jsonl`;
#      a warm re-run must print the first run's output (apart from the
#      `done in` timing line), Fig. 9's claim lines included, and leave
#      the records file byte-identical: nothing simulated, nothing
#      appended
#   5. the paper's claims, and figure output that is the same at any
#      `--jobs`: every target with `--no-cache` serially and at
#      `--jobs 2`.  Each run prints a `[claim ...: holds|FAILED]` line
#      per claim of repro.experiments.claims, checked on the data the
#      target shows, and exits 1 if any claim fails; the two outputs
#      must then match apart from the `done in` timing lines
#   6. the benchmarks the figures do not cover (pytest benchmarks/):
#      the Sec. 6.1, 6.4 and 6.5 ablations, Path ORAM, the oblivious
#      KV store and the toolchain, each asserting its table's shape
#   7. the symbolic relational smoke (scripts/symrel_smoke.py):
#      every builtin's native variant must be refuted with a
#      replay-confirmed secret pair (or, for the speculative fixture,
#      refuted only by the speculative pass) and every mitigated
#      variant proved
#   8. the automatic repair smoke (scripts/repair_smoke.py): every
#      leaky builtin must auto-repair to CT-PROVED within the 1.5x
#      overhead budget — a residual CT-REL exits nonzero
#   9. a perf smoke: the benchmark's self-tests, then one short run
#      of each workload (`verify`, `fig-ct`, `fig-bia`) that must end
#      with `"correct": true` — every op's result must match its
#      recorded digest, so the figure workloads check every simulated
#      counter and output a simulator speed-up must keep (a smoke, not
#      a stable number; scripts/bench.sh runs the full benchmark).
#      The `fig-ct` and `fig-bia` runs are traced (`--trace 1`): the
#      tracer wraps every method perfbench/layers.py names, so renaming
#      or deleting one, or changing the positional arguments its
#      wrappers read (a sweep's DS, a batch, a kernel's resume index),
#      fails here; `fig-ct` drives the sweep wrappers and the run
#      kernels on sweep traffic, `fig-bia` the BIA paths, and their
#      plain and traced passes still check every digest
#
# Usage: scripts/ci.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

# absolute, so stage 4 can run from another working directory
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; unused-import check (scripts/check_imports.py)"
    python scripts/check_imports.py src tests benchmarks examples
fi

echo "== tier-1 tests (pytest tests/)"
python -m pytest tests/ -q "$@"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
VCACHE_DIR="$WORK_DIR/vcache"
CACHE_CWD="$WORK_DIR/cwd"
RECORDS="$CACHE_CWD/.repro_results/records.jsonl"

echo "== constant-time check (python -m repro ctcheck --all)"
python -m repro ctcheck --all --json --vcache "$VCACHE_DIR" \
    >"$WORK_DIR/ctcheck-cold.json"

echo "== ctcheck warm verdict-cache pass (must re-check nothing)"
warm_err="$(python -m repro ctcheck --all --json --vcache "$VCACHE_DIR" \
    2>&1 >"$WORK_DIR/ctcheck-warm.json")"
echo "$warm_err"
grep -q "0 target(s) checked" <<<"$warm_err"
cmp "$WORK_DIR/ctcheck-cold.json" "$WORK_DIR/ctcheck-warm.json"

echo "== symbolic + repair ctcheck, cold then warm through a second verdict cache"
symbolic=(python -m repro ctcheck --all --symbolic --spec-window 2 --repair
    --json --vcache "$WORK_DIR/vcache-symbolic")
cold_rc=0
"${symbolic[@]}" >"$WORK_DIR/symbolic-cold.json" || cold_rc=$?
warm_rc=0
warm_err="$("${symbolic[@]}" 2>&1 >"$WORK_DIR/symbolic-warm.json")" \
    || warm_rc=$?
echo "$warm_err"
echo "exit codes: cold $cold_rc, warm $warm_rc (1 expected: native builtins leak)"
[[ "$cold_rc" -eq 1 && "$warm_rc" -eq 1 ]]
for run in cold warm; do
    python -c 'import json, sys
report = json.load(open(sys.argv[1]))
assert report["exit_code"] == 1, report["exit_code"]
assert len(report["checked"]) == 13, report["checked"]' \
        "$WORK_DIR/symbolic-$run.json"
done
grep -q "0 target(s) checked" <<<"$warm_err"
cmp "$WORK_DIR/symbolic-cold.json" "$WORK_DIR/symbolic-warm.json"

echo "== result-cache round trip (fig9 cold, then warm from .repro_results/)"
mkdir "$CACHE_CWD"
(cd "$CACHE_CWD" && python -m repro.experiments fig9) >"$WORK_DIR/fig9-cold.txt"
[[ "$(wc -l <"$RECORDS")" -eq 24 ]]
cp "$RECORDS" "$WORK_DIR/fig9-records.jsonl"
(cd "$CACHE_CWD" && python -m repro.experiments fig9) >"$WORK_DIR/fig9-warm.txt"
diff <(grep -v "done in" "$WORK_DIR/fig9-cold.txt") \
    <(grep -v "done in" "$WORK_DIR/fig9-warm.txt")
cmp "$WORK_DIR/fig9-records.jsonl" "$RECORDS"

echo "== paper claims; figure output at --jobs 1 == --jobs 2 (python -m repro.experiments --no-cache)"
python -m repro.experiments --no-cache --jobs 1 >"$WORK_DIR/all-jobs1.txt"
python -m repro.experiments --no-cache --jobs 2 >"$WORK_DIR/all-jobs2.txt"
diff <(grep -v "done in" "$WORK_DIR/all-jobs1.txt") \
    <(grep -v "done in" "$WORK_DIR/all-jobs2.txt")

echo "== ablation, application and toolchain benchmarks (pytest benchmarks/)"
python -m pytest benchmarks/ -q --benchmark-disable

echo "== symbolic relational smoke (scripts/symrel_smoke.py)"
python scripts/symrel_smoke.py

echo "== automatic repair smoke (scripts/repair_smoke.py)"
python scripts/repair_smoke.py

echo "== perf smoke (perfbench self-tests + a 1 s run of each workload)"
python3 perfbench/selftest.py
for workload in verify fig-ct fig-bia; do
    trace=0
    if [[ "$workload" == fig-* ]]; then
        trace=1
    fi
    bench_out="$(python3 perfbench/run.py --workload "$workload" --seconds 1 \
        --trace "$trace")"
    echo "$workload: $(tail -n 1 <<<"$bench_out")"
    tail -n 1 <<<"$bench_out" | grep -q '"correct": true'
done

echo "== CI gate passed"
