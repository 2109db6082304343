#!/usr/bin/env python
"""CI smoke for the symbolic relational checker.

``ctcheck --symbolic`` exits 1 whenever a *native* variant leaks —
which is true for almost every builtin by design — so the plain exit
code cannot gate CI.  This script asserts the *expected verdict
matrix* instead:

* every builtin's mitigated variant is **proved** (sequentially and
  speculatively);
* every builtin whose native variant is expected to leak is **refuted**
  with a concrete secret pair whose sanitizer replay confirms a
  nonempty trace diff;
* ``speculative_lookup`` and the local fixture
  ``transient_secret_branch`` (a secret branch that only a
  mispredicted public branch reaches; kept out of the builtins so
  ``ctcheck --all`` keeps its 13 targets) are the spec-gap witnesses:
  native variant proved sequentially, refuted only by the speculative
  pass.

Exit code 0 iff the whole matrix holds.  Run from the repo root:
``PYTHONPATH=src python scripts/symrel_smoke.py``.
"""

import sys

from repro.analysis.api import BUILTIN_PROGRAM_SPECS
from repro.analysis.symrel import check_program_relational
from repro.lang.ir import ArrayDecl, BinOp, If, Load, Program

#: programs whose native variant is sequentially constant-time (the
#: leak, if any, is speculative-only).
SEQUENTIALLY_SAFE = {"speculative_lookup", "transient_secret_branch"}

SPEC_WINDOW = 2


def transient_secret_branch_program() -> Program:
    """A never-taken public branch around ``If(s, t[0], t[32])``: a
    mispredicting core touches ``t[0]``'s line for one secret and
    ``t[32]``'s for the other."""
    return Program(
        name="transient_secret_branch",
        inputs=("p",),
        secret_inputs=("s",),
        arrays=(ArrayDecl("t", 64),),
        body=(
            BinOp("q", "and", "p", 63),
            BinOp("dead", "gt", "q", 63),
            If(
                "dead",
                then_body=(
                    If(
                        "s",
                        then_body=(Load("w", "t", 0),),
                        else_body=(Load("w", "t", 32),),
                    ),
                ),
            ),
        ),
        outputs=("w",),
    )


PROGRAMS = dict(
    BUILTIN_PROGRAM_SPECS, transient_secret_branch=transient_secret_branch_program
)


def main() -> int:
    failures = []
    for name in sorted(PROGRAMS):
        program = PROGRAMS[name]()

        native = check_program_relational(
            program, mitigate=False, spec_window=SPEC_WINDOW, replay=True
        )
        if name in SEQUENTIALLY_SAFE:
            if native.verdict != "proved":
                failures.append(
                    f"{name}: native expected proved, got {native.verdict}"
                )
            if native.spec_verdict != "refuted":
                failures.append(
                    f"{name}: native speculative pass expected refuted, "
                    f"got {native.spec_verdict}"
                )
        else:
            if native.verdict != "refuted":
                failures.append(
                    f"{name}: native expected refuted, got {native.verdict}"
                )
            elif native.replay is None or not native.replay.confirmed:
                failures.append(
                    f"{name}: counterexample replay did not confirm "
                    f"({native.replay.describe() if native.replay else 'no replay'})"
                )

        mitigated = check_program_relational(
            program, mitigate=True, spec_window=SPEC_WINDOW, replay=False
        )
        if mitigated.verdict != "proved":
            failures.append(
                f"{name}: mitigated expected proved, got {mitigated.verdict}"
            )
        if mitigated.spec_verdict != "proved":
            failures.append(
                f"{name}: mitigated speculative pass expected proved, "
                f"got {mitigated.spec_verdict}"
            )
        print(
            f"  {name:24s} native={native.verdict}"
            + (
                f"/spec:{native.spec_verdict}"
                if native.spec_verdict is not None
                else ""
            )
            + f" mitigated={mitigated.verdict}"
            + (
                " replay=confirmed"
                if native.replay is not None and native.replay.confirmed
                else ""
            )
        )
    if failures:
        print("symrel smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"symrel smoke passed: {len(PROGRAMS)} program(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
