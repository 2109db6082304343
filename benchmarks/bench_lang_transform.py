"""Toolchain bench: the mini-Constantine transformation end to end.

Runs the IR histogram program (secret branch + secret-indexed RMW)
natively and transformed against software CT and the BIA, asserting
the paper's ordering: native < BIA-transformed < CT-transformed, with
identical functional results.
"""

from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.experiments.report import format_table
from repro.lang.executor import run_program
from repro.lang.programs import demo_inputs, histogram_program


def sweep():
    rows = []
    for bins in (512, 2048):
        program, reference = histogram_program(bins=bins, n=32)
        inputs, arrays = demo_inputs("histogram", 32, seed=1)
        expected = reference(inputs, arrays)
        cycles = {}
        for label, ctx_cls, mitigate in (
            ("native", InsecureContext, False),
            ("ct", SoftwareCTContext, True),
            ("bia", BIAContext, True),
        ):
            machine = Machine(MachineConfig())
            out = run_program(
                program, ctx_cls(machine), inputs, arrays, mitigate=mitigate
            )
            assert out == expected, (bins, label)
            cycles[label] = machine.stats.cycles
        rows.append(
            (
                f"ir_hist_{bins}",
                cycles["ct"] / cycles["native"],
                cycles["bia"] / cycles["native"],
            )
        )
    return rows


def test_lang_transform(once):
    rows = once(sweep)
    print(
        "\n"
        + format_table(
            ["program", "CT overhead", "BIA overhead"],
            rows,
            title="Mini-Constantine: transformed IR program overheads",
        )
    )
    for label, ct, bia in rows:
        assert 1.0 < bia < ct, label
    # the CT/BIA gap widens with the DS, as everywhere else
    assert rows[1][1] / rows[1][2] > rows[0][1] / rows[0][2]
