"""Taint analysis: propagation, implicit flows, rejections."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
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
from repro.lang.taint import analyze


def prog(body, secret_inputs=(), inputs=(), arrays=()):
    return Program(
        name="t",
        inputs=tuple(inputs),
        secret_inputs=tuple(secret_inputs),
        arrays=tuple(arrays),
        body=tuple(body),
    )


class TestPropagation:
    def test_secret_inputs_are_tainted(self):
        report = analyze(prog([], secret_inputs=("k",)))
        assert "k" in report.tainted_regs

    def test_binop_propagates(self):
        report = analyze(
            prog([BinOp("x", "add", "k", 1)], secret_inputs=("k",))
        )
        assert "x" in report.tainted_regs

    def test_public_computation_untainted(self):
        report = analyze(
            prog(
                [Const("a", 1), BinOp("b", "add", "a", 2)],
                secret_inputs=("k",),
            )
        )
        assert "b" not in report.tainted_regs

    def test_select_propagates_from_any_operand(self):
        report = analyze(
            prog([Select("x", "k", 1, 2)], secret_inputs=("k",))
        )
        assert "x" in report.tainted_regs

    def test_secret_array_load_taints(self):
        report = analyze(
            prog(
                [Load("v", "data", 0)],
                arrays=[ArrayDecl("data", 4, secret=True)],
            )
        )
        assert "v" in report.tainted_regs

    def test_secret_index_marks_array(self):
        report = analyze(
            prog(
                [Load("v", "table", "k")],
                secret_inputs=("k",),
                arrays=[ArrayDecl("table", 4)],
            )
        )
        assert "table" in report.secret_indexed_arrays
        assert "v" in report.tainted_regs

    def test_tainted_store_taints_array_contents(self):
        report = analyze(
            prog(
                [
                    Store("a", 0, "k"),
                    Load("v", "a", 1),
                ],
                secret_inputs=("k",),
                arrays=[ArrayDecl("a", 4)],
            )
        )
        assert "a" in report.tainted_arrays
        assert "v" in report.tainted_regs  # reading the now-secret array

    def test_loop_carried_taint_reaches_fixpoint(self):
        """x is tainted only via the previous iteration's store."""
        body = [
            Const("x", 0),
            For(
                "i",
                4,
                (
                    Load("y", "a", 0),
                    BinOp("x", "add", "y", 0),
                    Store("a", 0, "k"),
                ),
            ),
        ]
        report = analyze(
            prog(body, secret_inputs=("k",), arrays=[ArrayDecl("a", 4)])
        )
        assert "x" in report.tainted_regs


class TestImplicitFlows:
    def test_secret_branch_detected(self):
        stmt = If("k", then_body=(Const("x", 1),))
        report = analyze(prog([stmt], secret_inputs=("k",)))
        assert report.is_secret_branch(stmt)
        assert "x" in report.tainted_regs  # written under a secret

    def test_public_branch_not_linearized(self):
        stmt = If("p", then_body=(Const("x", 1),))
        report = analyze(prog([Const("p", 1), stmt], secret_inputs=("k",)))
        assert not report.is_secret_branch(stmt)
        assert "x" not in report.tainted_regs

    def test_store_under_secret_taints_array(self):
        report = analyze(
            prog(
                [If("k", then_body=(Store("a", 0, 1),))],
                secret_inputs=("k",),
                arrays=[ArrayDecl("a", 4)],
            )
        )
        assert "a" in report.tainted_arrays
        assert "a" in report.secret_indexed_arrays

    def test_nested_branch_inherits_secrecy(self):
        inner = If(1, then_body=(Const("y", 1),))
        outer = If("k", then_body=(inner,))
        report = analyze(prog([outer], secret_inputs=("k",)))
        assert report.is_secret_branch(inner)


class TestSelectRefinement:
    """Secret-*condition* selects vs merely data-tainted selects."""

    def test_secret_condition_classified(self):
        stmt = Select("x", "k", 1, 2)
        report = analyze(prog([stmt], secret_inputs=("k",)))
        assert report.is_secret_cond_select(stmt)
        assert not report.is_data_tainted_select(stmt)
        assert "x" in report.tainted_regs

    def test_data_taint_classified(self):
        stmt = Select("x", "p", "k", 0)
        report = analyze(
            prog([Const("p", 1), stmt], secret_inputs=("k",))
        )
        assert not report.is_secret_cond_select(stmt)
        assert report.is_data_tainted_select(stmt)
        assert "x" in report.tainted_regs

    def test_both_when_condition_and_data_secret(self):
        stmt = Select("x", "k", "k", 0)
        report = analyze(prog([stmt], secret_inputs=("k",)))
        assert report.is_secret_cond_select(stmt)
        assert report.is_data_tainted_select(stmt)

    def test_fully_public_select_is_neither(self):
        stmt = Select("x", "p", 1, 2)
        report = analyze(
            prog([Const("p", 1), stmt], secret_inputs=("k",))
        )
        assert not report.is_secret_cond_select(stmt)
        assert not report.is_data_tainted_select(stmt)
        assert "x" not in report.tainted_regs

    def test_select_under_secret_branch_is_data_tainted(self):
        stmt = Select("x", "p", 1, 2)
        report = analyze(
            prog(
                [Const("p", 1), If("k", then_body=(stmt,))],
                secret_inputs=("k",),
            )
        )
        assert report.is_data_tainted_select(stmt)
        assert not report.is_secret_cond_select(stmt)

    def test_loop_carried_taint_flips_select_classification(self):
        """The condition only becomes secret on a later fixpoint pass."""
        stmt = Select("x", "c", 1, 2)
        body = [
            Const("c", 0),
            For(
                "i",
                4,
                (
                    stmt,
                    Load("y", "a", 0),
                    BinOp("c", "add", "y", 0),
                    Store("a", 0, "k"),
                ),
            ),
        ]
        report = analyze(
            prog(body, secret_inputs=("k",), arrays=[ArrayDecl("a", 4)])
        )
        assert report.is_secret_cond_select(stmt)

    def test_taint_through_select_reaches_store(self):
        report = analyze(
            prog(
                [
                    Select("x", "k", 1, 2),
                    Store("a", 0, "x"),
                ],
                secret_inputs=("k",),
                arrays=[ArrayDecl("a", 4)],
            )
        )
        assert "a" in report.tainted_arrays

    def test_nested_secret_if_taints_inner_select_condition(self):
        stmt = Select("x", "c", 1, 2)
        inner = If(1, then_body=(Const("c", 1),))
        outer = If("k", then_body=(inner,))
        report = analyze(
            prog([Const("c", 0), outer, stmt], secret_inputs=("k",))
        )
        # c was public before the branch but written under a secret
        # one, so the later select has a secret condition.
        assert report.is_secret_cond_select(stmt)


class TestRejections:
    def test_secret_trip_count_rejected(self):
        with pytest.raises(ProtocolError):
            analyze(prog([For("i", "k", ())], secret_inputs=("k",)))

    def test_loop_under_secret_branch_rejected(self):
        with pytest.raises(ProtocolError):
            analyze(
                prog(
                    [If("k", then_body=(For("i", 4, ()),))],
                    secret_inputs=("k",),
                )
            )

    def test_non_strict_mode_tolerates(self):
        analyze(
            prog([For("i", "k", ())], secret_inputs=("k",)), strict=False
        )

    def test_bad_op_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            BinOp("x", "pow", 1, 2)

    def test_duplicate_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(
                name="bad",
                arrays=(ArrayDecl("a", 1), ArrayDecl("a", 2)),
            )

    def test_input_both_public_and_secret_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(name="bad", inputs=("k",), secret_inputs=("k",))


class TestProgramBoundary:
    """Undeclared arrays and unwritten outputs fail at construction."""

    @pytest.mark.parametrize(
        "body",
        [
            (Load("x", "b", 0),),
            (Store("b", 0, 1),),
            (If("k", then_body=(For("i", 2, (Load("x", "b", "i"),)),)),),
            (If("k", else_body=(Store("b", 0, "k"),)),),
            (For("i", 2, (For("j", 2, (Store("b", "j", "i"),)),)),),
        ],
        ids=["load", "store", "load-in-for-in-then", "store-in-else",
             "store-in-for-in-for"],
    )
    def test_undeclared_array_rejected(self, body):
        with pytest.raises(ConfigurationError,
                           match=r"'bad' accesses undeclared array.*'b'"):
            Program(
                name="bad",
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 4),),
                body=body,
            )

    def test_unwritten_output_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"'bad' output.*'y'.*neither"):
            Program(
                name="bad",
                inputs=("k",),
                body=(Const("x", 1),),
                outputs=("x", "y"),
            )

    def test_every_undeclared_array_is_named(self):
        with pytest.raises(ConfigurationError,
                           match=r"undeclared array\(s\) \['b', 'c'\]"):
            Program(
                name="bad",
                inputs=("k",),
                arrays=(ArrayDecl("a", 4),),
                body=(
                    Store("c", 0, "k"),
                    Load("x", "a", "k"),
                    If("k", then_body=(Load("y", "b", 0),)),
                ),
            )

    def test_every_unwritten_output_is_named_in_order(self):
        with pytest.raises(ConfigurationError,
                           match=r"output\(s\) \['z', 'y'\] are neither"):
            Program(
                name="bad",
                inputs=("k",),
                body=(Const("x", 1),),
                outputs=("z", "k", "x", "y"),
            )

    def test_outputs_from_inputs_nested_writes_and_loop_vars_accepted(self):
        program = Program(
            name="ok",
            inputs=("p",),
            secret_inputs=("k",),
            arrays=(ArrayDecl("a", 4),),
            body=(
                For("i", 4, (Store("a", "i", "p"),)),
                If("k", then_body=(Load("x", "a", "k"),),
                   else_body=(Select("y", "k", 1, 2),)),
            ),
            outputs=("p", "k", "i", "x", "y"),
        )
        assert program.outputs == ("p", "k", "i", "x", "y")

    @pytest.mark.parametrize(
        "body",
        [
            (If("k", then_body=(Const("y", 1),)), BinOp("z", "add", "y", 1)),
            (If("y", then_body=(Const("z", 1),)),),
            (For("i", "y", ()),),
            (Load("z", "a", "y"),),
            (Store("a", 0, "y"),),
            (Select("z", "k", 1, "y"),),
            (For("i", "p", (Const("y", 1),)), BinOp("z", "add", "y", 1)),
            (For("i", 0, (Const("y", 1),)), BinOp("z", "add", "y", 1)),
            (For("i", 2, (BinOp("y", "add", "y", "i"),)),),
        ],
        ids=["one-arm-write", "if-cond", "for-count", "load-index",
             "store-value", "select-operand", "after-symbolic-loop",
             "after-zero-loop", "loop-carried"],
    )
    def test_read_before_assignment_rejected(self, body):
        with pytest.raises(ConfigurationError,
                           match=r"'bad' reads register 'y' before"):
            Program(
                name="bad",
                inputs=("p",),
                secret_inputs=("k",),
                arrays=(ArrayDecl("a", 4),),
                body=body,
            )

    def test_reads_assigned_on_every_path_accepted(self):
        # Both arms write y; a positive literal loop leaves its writes
        # and its variable behind; a loop variable is defined in its
        # body; an output written in one arm only still reads as 0.
        program = Program(
            name="ok",
            inputs=("p",),
            secret_inputs=("k",),
            arrays=(ArrayDecl("a", 4),),
            body=(
                If("k", then_body=(Const("y", 1),),
                   else_body=(Load("y", "a", 0),)),
                For("i", 2, (Const("w", 1),)),
                For("j", "p", (Store("a", "j", "y"),)),
                BinOp("z", "add", "y", "w"),
                BinOp("z", "add", "z", "i"),
                If("k", then_body=(Const("u", 1),)),
            ),
            outputs=("z", "u"),
        )
        assert program.outputs == ("z", "u")
