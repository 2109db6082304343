"""Executor: native vs transformed functional equivalence + security."""

import pytest

from repro.attacks.analysis import check_trace_equivalence
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    SecurityViolationError,
)
from repro.lang.executor import run_program
from repro.lang.ir import ArrayDecl, BinOp, Const, If, Load, Program
from repro.lang.programs import (
    conditional_sum_program,
    demo_inputs,
    histogram_program,
    lookup_program,
    masked_lookup_program,
    speculative_lookup_program,
    swap_program,
)

PROGRAMS = {
    "lookup": (lambda: lookup_program(96), 96),
    "histogram": (lambda: histogram_program(64, 24), 24),
    "conditional_sum": (lambda: conditional_sum_program(24), 24),
    "swap": (lambda: swap_program(96), 96),
    "masked_lookup": (lambda: masked_lookup_program(128), 128),
    "speculative_lookup": (lambda: speculative_lookup_program(96), 96),
}


def make_ctx(kind, machine=None):
    machine = machine or Machine(MachineConfig())
    return {
        "insecure": InsecureContext,
        "ct": SoftwareCTContext,
        "bia": BIAContext,
    }[kind](machine)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("kind", ["insecure", "ct", "bia"])
def test_transformed_matches_reference(name, kind):
    builder, size = PROGRAMS[name]
    program, reference = builder()
    inputs, arrays = demo_inputs(name, size, seed=3)
    got = run_program(program, make_ctx(kind), inputs, arrays, mitigate=True)
    assert got == reference(inputs, arrays)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_native_matches_reference(name):
    builder, size = PROGRAMS[name]
    program, reference = builder()
    inputs, arrays = demo_inputs(name, size, seed=5)
    got = run_program(
        program, make_ctx("insecure"), inputs, arrays, mitigate=False
    )
    assert got == reference(inputs, arrays)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_transformation_costs_more(name):
    builder, size = PROGRAMS[name]
    program, _ = builder()
    inputs, arrays = demo_inputs(name, size, seed=1)
    native = make_ctx("insecure")
    run_program(program, native, inputs, arrays, mitigate=False)
    mitigated = make_ctx("bia")
    run_program(program, mitigated, inputs, arrays, mitigate=True)
    assert mitigated.machine.stats.cycles > native.machine.stats.cycles


class TestSecurity:
    def _victim_factory(self, name, kind, size):
        builder, _ = PROGRAMS[name]

        def victim_factory(secret):
            def victim(machine):
                program, _ = builder()
                inputs, arrays = demo_inputs(name, size, seed=secret)
                run_program(
                    program,
                    make_ctx(kind, machine),
                    inputs,
                    arrays,
                    mitigate=(kind != "insecure"),
                )

            return victim

        return victim_factory

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("kind", ["ct", "bia"])
    def test_transformed_is_trace_equivalent(self, name, kind):
        _, size = PROGRAMS[name]
        check_trace_equivalence(
            lambda: Machine(MachineConfig()),
            self._victim_factory(name, kind, size),
            [1, 2, 3],
        )

    @pytest.mark.parametrize("name", ["lookup", "histogram", "swap"])
    def test_native_leaks(self, name):
        _, size = PROGRAMS[name]
        with pytest.raises(SecurityViolationError):
            check_trace_equivalence(
                lambda: Machine(MachineConfig()),
                self._victim_factory(name, "insecure", size),
                [1, 2, 3],
            )


class TestDeadPathSafety:
    def test_dead_branch_garbage_index_is_decoyed(self):
        """The not-taken side computes an out-of-bounds index from a
        suppressed register; the decoy keeps the access in the DS."""
        program = Program(
            name="decoy",
            secret_inputs=("k",),
            arrays=(ArrayDecl("a", 8),),
            body=(
                BinOp("big", "ge", "k", 100),
                If(
                    "big",
                    # dead when k < 100: idx would be 1 << 20
                    then_body=(
                        Const("idx", 1 << 20),
                        Load("x", "a", "idx"),
                    ),
                    else_body=(Load("x", "a", 0),),
                ),
            ),
            outputs=("x",),
        )
        out = run_program(
            program,
            make_ctx("bia"),
            {"k": 5},
            {"a": list(range(8))},
            mitigate=True,
        )
        assert out["x"] == 0  # the live (else) side's value

    def test_live_out_of_bounds_still_raises(self):
        program = Program(
            name="oob",
            inputs=("i",),
            arrays=(ArrayDecl("a", 8),),
            body=(Load("x", "a", "i"),),
            outputs=("x",),
        )
        with pytest.raises(ProtocolError):
            run_program(program, make_ctx("insecure"), {"i": 99}, {})


class TestErrors:
    def test_missing_input(self):
        program, _ = lookup_program(8)
        with pytest.raises(ProtocolError):
            run_program(program, make_ctx("insecure"), {}, {"table": [0] * 8})

    def test_wrong_array_size(self):
        program, _ = lookup_program(8)
        with pytest.raises(ProtocolError):
            run_program(
                program, make_ctx("insecure"), {"key": 1}, {"table": [0] * 4}
            )

    def test_unassigned_register(self):
        # Rejected when the program is built, before anything runs.
        with pytest.raises(ConfigurationError, match="'nope'"):
            Program(name="bad", body=(BinOp("x", "add", "nope", 1),))

    def test_default_zero_arrays(self):
        program = Program(
            name="zeros",
            arrays=(ArrayDecl("a", 4),),
            body=(Load("x", "a", 2),),
            outputs=("x",),
        )
        out = run_program(program, make_ctx("insecure"), {}, None)
        assert out["x"] == 0
