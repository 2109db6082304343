#!/usr/bin/env bash
# One entry point for both lints:
#   * the repo's own style lint (ruff, when installed — config lives in
#     pyproject.toml [tool.ruff]); without ruff, the offline
#     unused-import check scripts/check_imports.py (ruff's F401);
#   * the domain lint: `python -m repro ctcheck --all`, the
#     constant-time checker over every built-in IR program and every
#     workload's registered dataflow linearization sets (exits 1 on
#     error-severity findings such as DS-COVERAGE).
#
# The symbolic relational checker is NOT part of the default gate here
# (its CT-REL findings for the intentionally-leaky native builtins
# exit 1 by design); run it explicitly with
#   scripts/lint.sh --symbolic --spec-window 2
# or assert the expected verdict matrix with scripts/symrel_smoke.py.
#
# Usage: scripts/lint.sh [extra ctcheck args...]
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; unused-import check (scripts/check_imports.py)"
    python scripts/check_imports.py src tests benchmarks examples
fi

echo "== python -m repro ctcheck --all"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro ctcheck --all "$@"
