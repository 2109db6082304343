#!/usr/bin/env python3
"""The toolchain layer: automatic constant-time transformation.

The paper integrates its instructions into Constantine, an LLVM pass.
This demo shows the library's miniature of that pipeline: a program
written once in a tiny IR, taint-analysed to find its secret branch
and secret-indexed accesses, then executed

* natively (insecure),
* transformed against software CT sweeps, and
* transformed against the BIA hardware,

with identical outputs and the expected cost ordering.

Run:  python examples/mini_compiler.py
"""

from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.experiments.report import format_table
from repro.lang.executor import run_program
from repro.lang.pretty import dump
from repro.lang.programs import demo_inputs, histogram_program
from repro.lang.taint import analyze


def main() -> None:
    program, reference = histogram_program(bins=512, n=32)
    inputs, arrays = demo_inputs("histogram", 32, seed=1)

    report = analyze(program)
    print(dump(program, report))
    print()
    print(f"program: {program.name!r}")
    print(f"  secret branches found      : {len(report.secret_branches)}")
    print(f"  secret-indexed arrays      : {sorted(report.secret_indexed_arrays)}")
    print(f"  tainted registers          : {sorted(report.tainted_regs)}\n")

    expected = reference(inputs, arrays)
    rows = []
    base = None
    for label, ctx_cls, mitigate in (
        ("native (insecure)", InsecureContext, False),
        ("transformed + software CT", SoftwareCTContext, True),
        ("transformed + BIA (L1d)", BIAContext, True),
    ):
        machine = Machine(MachineConfig())
        out = run_program(
            program, ctx_cls(machine), inputs, arrays, mitigate=mitigate
        )
        assert out == expected, label
        cycles = machine.stats.cycles
        if base is None:
            base = cycles
        rows.append((label, cycles, cycles / base))

    print(
        format_table(
            ["execution", "cycles", "overhead"],
            rows,
            title="histogram IR program, 512 bins, 32 secret values",
        )
    )
    print("\nAll three executions produced identical bin counts.")


if __name__ == "__main__":
    main()
