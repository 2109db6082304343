"""Interval domain, widening termination, and DS coverage proofs."""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.analysis.intervals import (
    MASK32,
    Interval,
    _binop_interval,
    analyze_intervals,
    prove_ds_covers,
)
from repro.core.machine import Machine, MachineConfig
from repro.ct.context import InsecureContext
from repro.ct.ds import DataflowLinearizationSet
from repro.lang import ir
from repro.lang.executor import run_program
from repro.lang.ir import (
    ArrayDecl,
    BinOp,
    Const,
    For,
    If,
    Load,
    Program,
    Select,
    Store,
)
from repro.lang.programs import (
    histogram_program,
    lookup_program,
    swap_program,
)


def prog(body, secret_inputs=(), inputs=(), arrays=()):
    return Program(
        name="t",
        inputs=tuple(inputs),
        secret_inputs=tuple(secret_inputs),
        arrays=tuple(arrays),
        body=tuple(body),
    )


class TestDomain:
    def test_const_and_join(self):
        a, b = Interval.const(3), Interval.const(10)
        assert a.join(b) == Interval(3, 10)

    def test_widen_unstable_bounds(self):
        old, new = Interval(0, 10), Interval(0, 11)
        widened = old.widen(new)
        assert widened.lo == 0 and widened.hi == float("inf")

    def test_widen_stable_is_identity(self):
        old = Interval(0, 10)
        assert old.widen(Interval(2, 9)) == old

    def test_mask_in_range_is_exact(self):
        assert Interval(0, 100).masked() == Interval(0, 100)

    def test_mask_wrapping_collapses_to_word(self):
        assert Interval(-5, 10).masked() == Interval(0, MASK32)

    def test_contains_and_within(self):
        iv = Interval(2, 6)
        assert iv.contains(4) and not iv.contains(7)
        assert iv.within(0, 6) and not iv.within(3, 10)


class TestTransfer:
    def _bound_of(self, body, reg, **kwargs):
        program = prog(body, **kwargs)
        report = analyze_intervals(program)
        return report.final_env[reg]

    def test_mod_positive_constant(self):
        iv = self._bound_of(
            [BinOp("t", "mod", "k", 64)], "t", secret_inputs=("k",)
        )
        assert iv == Interval(0, 63)

    def test_add_of_constants(self):
        iv = self._bound_of([Const("a", 3), BinOp("b", "add", "a", 4)], "b")
        assert iv == Interval(7, 7)

    def test_unknown_input_is_unbounded(self):
        program = prog([BinOp("x", "add", "k", 0)], secret_inputs=("k",))
        report = analyze_intervals(program)
        # The raw input is unbounded; the register *write* is masked
        # to 32 bits by the executor, so x collapses to a full word.
        assert not report.final_env["k"].is_bounded
        assert report.final_env["x"] == Interval(0, MASK32)

    def test_comparison_is_boolean(self):
        iv = self._bound_of(
            [BinOp("c", "lt", "k", 5)], "c", secret_inputs=("k",)
        )
        assert iv == Interval(0, 1)

    def test_and_with_mask_constant(self):
        iv = self._bound_of(
            [BinOp("m", "and", "k", 15)], "m", secret_inputs=("k",)
        )
        assert iv.within(0, 15)

    def test_div_by_positive_constant(self):
        iv = self._bound_of(
            [Const("a", 100), BinOp("d", "div", "a", 3)], "d"
        )
        assert iv == Interval(33, 33)

    def test_select_joins_data_operands(self):
        iv = self._bound_of(
            [Const("a", 2), Const("b", 9), Select("s", "k", "a", "b")],
            "s",
            secret_inputs=("k",),
        )
        assert iv == Interval(2, 9)

    def test_load_is_any_word(self):
        iv = self._bound_of(
            [Load("v", "a", 0)], "v", arrays=(ArrayDecl("a", 4),)
        )
        assert iv == Interval(0, MASK32)


class TestWideShifts:
    """Shift amounts whose interval reaches the word width: the
    transfers treat them as unbounded and build no ``2 ** amount``,
    while amounts below the width keep their exact intervals."""

    #: ``(s0, s1, p1)``: products ``s1 * p1`` (masked) of 0, 5, 31, 32,
    #: 33, 64, 2**31 and 2**32 - 1 as shift amounts
    SAMPLES = [
        (0x12345678, 0, 7), (0xFFFFFFFF, 5, 1), (1, 31, 1),
        (0x80000000, 4, 8), (0xFFFFFFFF, 3, 11), (7, 8, 8),
        (0xDEADBEEF, 1 << 16, 1 << 15), (0xFFFFFFFF, MASK32, 1),
    ]

    def test_transfer_builds_no_huge_power(self):
        amount = Interval(0, MASK32)
        start = time.perf_counter()
        shr = _binop_interval("shr", Interval.word(), amount)
        shl = _binop_interval("shl", Interval.word(), amount)
        beyond = _binop_interval("shr", Interval.word(), Interval(40, MASK32))
        assert time.perf_counter() - start < 1.0
        assert shr == Interval(0, MASK32)
        assert shl == Interval.top()
        assert beyond == Interval(0, 0)
        for a, _s1, _p1 in self.SAMPLES:
            for b in (0, 1, 31, 32, 40, MASK32):
                assert shr.contains(a >> b)
                assert beyond.contains(a >> max(b, 40))

    def test_amounts_below_the_width_stay_exact(self):
        assert _binop_interval(
            "shr", Interval(0, 1000), Interval(2, 3)
        ) == Interval(0, 250)
        assert _binop_interval(
            "shl", Interval(1, 3), Interval(0, 31)
        ) == Interval(1, 3 << 31)

    def test_register_shift_by_a_product(self):
        program = prog(
            [
                BinOp("r12", "mul", "s1", "p1"),
                BinOp("r30", "shr", "s0", "r12"),
                BinOp("r13", "and", "r12", 0xFFFF),
                BinOp("r31", "shl", "s0", "r13"),
            ],
            secret_inputs=("s0", "s1"),
            inputs=("p1",),
        )
        program = dataclasses.replace(program, outputs=("r30", "r31"))
        start = time.perf_counter()
        env = analyze_intervals(program).final_env
        assert time.perf_counter() - start < 1.0
        assert env["r30"] == Interval(0, MASK32)
        for s0, s1, p1 in self.SAMPLES:
            ctx = InsecureContext(Machine(MachineConfig()))
            out = run_program(
                program, ctx, {"s0": s0, "s1": s1, "p1": p1}, mitigate=False
            )
            assert env["r30"].contains(out["r30"]), (s0, s1, p1)
            assert env["r31"].contains(out["r31"]), (s0, s1, p1)


class TestLoops:
    def test_loop_var_bounded_by_trip_count(self):
        program = prog(
            [For("i", 10, (Store("a", "i", 1),))],
            arrays=(ArrayDecl("a", 10),),
        )
        report = analyze_intervals(program)
        store = program.body[0].body[0]
        assert report.index_interval(store) == Interval(0, 9)

    def test_loop_accumulator_widens_but_terminates(self):
        # acc grows every iteration: widening must terminate, bound -> inf
        program = prog(
            [
                Const("acc", 0),
                For("i", 100, (BinOp("acc", "add", "acc", 1),)),
            ]
        )
        report = analyze_intervals(program)
        acc = report.final_env["acc"]
        assert acc.lo == 0  # never shrinks below the initial value

    def test_nested_loops_terminate(self):
        # Widening must converge on nested loops with loop-carried state.
        inner = For("j", 8, (BinOp("x", "add", "x", "j"),))
        program = prog(
            [Const("x", 0), For("i", 8, (inner, BinOp("x", "add", "x", 1)))]
        )
        report = analyze_intervals(program)  # must not hang
        assert report.final_env["x"].lo == 0

    def test_triply_nested_loops_terminate(self):
        body = (BinOp("x", "add", "x", 1),)
        for var in ("k", "j", "i"):
            body = (For(var, 4, body),)
        program = prog([Const("x", 0)] + list(body))
        report = analyze_intervals(program)
        assert report.final_env["x"].lo == 0

    def test_zero_trip_loop_body_unreachable(self):
        program = prog(
            [Const("n", 0), For("i", "n", (Store("a", "i", 1),))],
            arrays=(ArrayDecl("a", 4),),
        )
        report = analyze_intervals(program)
        store = program.body[1].body[0]
        assert id(store) not in report.access_intervals


class TestBuiltinProgramBounds:
    @pytest.mark.parametrize(
        "builder,size",
        [(lookup_program, 64), (swap_program, 32)],
    )
    def test_modded_indices_stay_in_bounds(self, builder, size):
        program, _ = builder(size)
        report = analyze_intervals(program)
        for _, stmt, interval in report.accesses():
            decl = program.array(stmt.array)
            assert interval.within(0, decl.size - 1), (stmt, str(interval))

    def test_histogram_indices_stay_in_bounds(self):
        program, _ = histogram_program(16, 8)
        report = analyze_intervals(program)
        for _, stmt, interval in report.accesses():
            decl = program.array(stmt.array)
            assert interval.within(0, decl.size - 1), (stmt, str(interval))


class TestDSCoverage:
    BASE = 0x40000

    def _lookup(self, size=64):
        program, _ = lookup_program(size)
        access = program.body[1]  # the secret-indexed Load
        return program, access

    def test_full_array_ds_is_covered(self):
        program, access = self._lookup()
        ds = DataflowLinearizationSet.from_range(
            self.BASE, 64 * params.WORD_SIZE, name="table"
        )
        proof = prove_ds_covers(program, access, ds, base=self.BASE)
        assert proof.covered and bool(proof)

    def test_underregistered_ds_names_missing_lines(self):
        program, access = self._lookup()
        # DS registered over only half the array: the upper lines are
        # reachable (index bound [0, 63]) but not covered.
        ds = DataflowLinearizationSet.from_range(
            self.BASE, 32 * params.WORD_SIZE, name="half"
        )
        proof = prove_ds_covers(program, access, ds, base=self.BASE)
        assert not proof.covered
        assert proof.missing_lines, proof.reason
        assert all(
            line >= self.BASE + 32 * params.WORD_SIZE
            for line in proof.missing_lines
        )

    def test_unbounded_index_is_unprovable(self):
        program = Program(
            name="unbounded",
            secret_inputs=("key",),
            arrays=(ArrayDecl("table", 64),),
            body=(Load("out", "table", "key"),),
            outputs=("out",),
        )
        ds = DataflowLinearizationSet.from_range(
            self.BASE, 64 * params.WORD_SIZE, name="table"
        )
        proof = prove_ds_covers(program, program.body[0], ds, base=self.BASE)
        assert not proof.covered
        assert "unbounded" in proof.reason

    def test_access_by_path_string(self):
        program, access = self._lookup()
        ds = DataflowLinearizationSet.from_range(
            self.BASE, 64 * params.WORD_SIZE, name="table"
        )
        proof = prove_ds_covers(program, "body[1]", ds, base=self.BASE)
        assert proof.covered

    def test_non_access_path_rejected(self):
        program, _ = self._lookup()
        ds = DataflowLinearizationSet.from_range(
            self.BASE, 64 * params.WORD_SIZE, name="table"
        )
        with pytest.raises(TypeError):
            prove_ds_covers(program, "body[0]", ds, base=self.BASE)


@st.composite
def interval_leaves(draw, max_value=1 << 16):
    lo = draw(st.integers(min_value=0, max_value=max_value))
    hi = lo + draw(st.integers(min_value=0, max_value=max_value))
    hi = min(hi, max_value)
    return Interval(lo, hi), draw(
        st.integers(min_value=lo, max_value=hi)
    )


@st.composite
def interval_trees(draw, depth=0):
    """A random BinOp tree as (interval, concrete value in it)."""
    if depth >= 3 or draw(st.booleans()):
        return draw(interval_leaves())
    op = draw(st.sampled_from(sorted(ir.OPS)))
    ia, a = draw(interval_trees(depth=depth + 1))
    if op in ("shl", "shr"):
        # Unbounded shift amounts make ``a << b`` intractable; real
        # programs shift by small constants, so bound the RHS.
        ib, b = draw(interval_leaves(max_value=64))
    else:
        ib, b = draw(interval_trees(depth=depth + 1))
    # Mirror the interpreter/executor pipeline: the abstract result
    # and the concrete result are both masked at the register write.
    iv = _binop_interval(op, ia, ib).masked()
    value = ir.OPS[op][0](a, b) & MASK32
    return iv, value


class TestTransferSoundness:
    @settings(max_examples=300, deadline=None)
    @given(interval_trees())
    def test_concrete_results_stay_inside_abstract_bounds(self, tree):
        interval, value = tree
        assert interval.contains(value), (interval, value)


class TestForCountIntervals:
    def test_symbolic_trip_count_is_recorded(self):
        program = prog(
            [
                BinOp("m", "and", "n", 7),
                For("i", "m", (Const("x", 1),)),
            ],
            inputs=("n",),
        )
        report = analyze_intervals(program)
        interval = report.trip_count_interval(program.body[1])
        assert interval.within(0, 7)

    def test_zero_trip_loop_still_recorded(self):
        program = prog(
            [Const("n", 0), For("i", "n", (Const("x", 1),))]
        )
        report = analyze_intervals(program)
        interval = report.trip_count_interval(program.body[1])
        assert interval == Interval(0, 0)

    def test_unvisited_statement_raises(self):
        program = prog([Const("x", 1)])
        report = analyze_intervals(program)
        with pytest.raises(KeyError):
            report.trip_count_interval(For("i", 4, ()))


class TestBranchJoin:
    def test_if_joins_both_sides(self):
        program = prog(
            [
                If(
                    "p",
                    then_body=(Const("x", 1),),
                    else_body=(Const("x", 10),),
                )
            ],
            inputs=("p",),
        )
        report = analyze_intervals(program)
        assert report.final_env["x"] == Interval(1, 10)
