"""Symbolic term layer: simplification, evaluation, bit influence."""

import pytest

from repro.analysis.symrel import expr
from repro.analysis.symrel.expr import MASK32
from repro.lang import ir

pytestmark = pytest.mark.symrel


def k():
    return expr.var("k", side="A")


class TestInterning:
    def test_structural_equality_is_identity(self):
        a = expr.op("add", expr.var("x"), expr.const(1))
        b = expr.op("add", expr.var("x"), expr.const(1))
        assert a is b

    def test_sides_are_distinct(self):
        assert expr.var("k", side="A") is not expr.var("k", side="B")
        assert expr.var("k") is not expr.var("k", side="A")


class TestSimplification:
    def test_constant_folding(self):
        assert expr.op("add", expr.const(3), expr.const(4)).value == 7
        assert expr.op("sub", expr.const(0), expr.const(1)).value == MASK32

    def test_identities(self):
        x = k()
        assert expr.op("add", x, expr.const(0)) is x
        assert expr.op("mul", x, expr.const(1)) is x
        assert expr.op("xor", x, x).value == 0
        assert expr.op("sub", x, x).value == 0
        assert expr.op("and", x, expr.const(0)).value == 0
        assert expr.op("and", x, expr.const(MASK32)) is x

    def test_mod_pow2_becomes_and(self):
        t = expr.op("mod", k(), expr.const(64))
        assert t.kind == "op" and t.args[0] == "and"
        assert t.args[2].value == 63
        assert (t.lo, t.hi) == (0, 63)

    def test_div_pow2_becomes_shr(self):
        t = expr.op("div", k(), expr.const(8))
        assert t.kind == "op" and t.args[0] == "shr"
        assert t.args[2].value == 3

    def test_range_decided_comparison_folds(self):
        # the speculative fixture's bounds check: (k & 63) >= 64 == 0
        masked = expr.op("and", k(), expr.const(63))
        assert expr.op("ge", masked, expr.const(64)).value == 0
        assert expr.op("lt", masked, expr.const(64)).value == 1

    def test_ite_folds(self):
        x, y = k(), expr.var("k", side="B")
        assert expr.ite(expr.const(1), x, y) is x
        assert expr.ite(expr.const(0), x, y) is y
        cond = expr.op("lt", x, expr.const(5))
        assert expr.ite(cond, x, x) is x


class TestArrayReads:
    def test_read_through_concrete_writes(self):
        state = expr.array_init("t", None, 8)
        v = k()
        state = expr.array_write(state, expr.const(3), v)
        assert expr.read(state, expr.const(3)) is v
        elem = expr.read(state, expr.const(2))
        assert elem.kind == "var" and elem.args == ("t", 2, None)

    def test_read_concrete_init(self):
        state = expr.array_init("t", None, 4, concrete=(10, 20, 30, 40))
        assert expr.read(state, expr.const(2)).value == 30

    def test_symbolic_index_defers(self):
        state = expr.array_init("t", None, 4)
        r = expr.read(state, k())
        assert r.kind == "read"


class TestEvaluation:
    def test_matches_executor_semantics(self):
        # div/mod by zero -> 0, matching ir.OPS.
        x = expr.var("x")
        for opname in ("div", "mod"):
            t = expr.op(opname, expr.const(7), x)
            assert expr.evaluate(t, {("x", None, None): 0}) == 0

    def test_shift_clamps(self):
        x = expr.var("x")
        big = expr.op("shl", expr.const(1), x)
        assert expr.evaluate(big, {("x", None, None): 40}) == 0
        srl = expr.op("shr", expr.const(MASK32), x)
        assert expr.evaluate(srl, {("x", None, None): 100}) == 0

    @pytest.mark.parametrize("opname", sorted(ir.OPS))
    def test_ops_agree_with_ir_table(self, opname):
        a, b = 0xDEADBEEF, 13
        t = expr.op(opname, expr.var("a"), expr.var("b"))
        got = expr.evaluate(
            t, {("a", None, None): a, ("b", None, None): b}
        )
        assert got == (ir.OPS[opname][0](a, b) & MASK32)

    @pytest.mark.parametrize("opname", ["shl", "shr"])
    def test_shifts_follow_the_ir_table(self, opname):
        """Constant folding and evaluation shift exactly as the
        executor does, below, at and above 32 and 64."""
        for amount in (0, 31, 32, 33, 63, 64, 65, 1 << 40):
            for a in (0, 1, 0xDEADBEEF, MASK32, -5):
                assert expr._apply_op(opname, a, amount) == (
                    ir.OPS[opname][0](a, amount) & MASK32
                ), (a, amount)

    def test_read_walks_write_chain(self):
        state = expr.array_init("t", "A", 4)
        state = expr.array_write(state, expr.var("i"), expr.const(99))
        r = expr.read(state, expr.const(1))
        # write lands elsewhere -> initial secret element
        model = {("i", None, None): 0, ("t", 1, "A"): 7}
        assert expr.evaluate(r, model) == 7
        # write lands on index 1 -> shadowed
        assert expr.evaluate(r, {("i", None, None): 1}) == 99


class TestInfluence:
    def test_and_mask_narrows(self):
        t = expr.op("and", k(), expr.const(0b1010))
        infl = expr.influence([t])
        assert infl == {("k", None, "A"): 0b1010}

    def test_compare_widens(self):
        t = expr.op("ge", k(), expr.const(4))
        infl = expr.influence([t])
        assert infl[("k", None, "A")] == MASK32

    def test_masked_bits_provably_irrelevant(self):
        # flipping a bit outside the influence mask never changes the
        # value — the property exhaustive enumeration relies on.
        t = expr.op("and", k(), expr.const(0x3))
        key = ("k", None, "A")
        for base in (0, 1, 2, 3):
            v0 = expr.evaluate(t, {key: base})
            for bit in range(2, 32):
                assert expr.evaluate(t, {key: base | (1 << bit)}) == v0


class TestHelpers:
    def test_free_vars_deterministic(self):
        t = expr.op("add", expr.var("b"), expr.var("a"))
        assert expr.free_vars([t]) == [
            ("b", None, None),
            ("a", None, None),
        ]

    def test_mirror_key(self):
        assert expr.mirror_key(("k", None, "A")) == ("k", None, "B")
        assert expr.mirror_key(("k", 3, "B")) == ("k", 3, "A")
        assert expr.mirror_key(("n", None, None)) == ("n", None, None)

    def test_bool_and_not(self):
        x = k()
        b = expr.bool_term(x)
        assert (b.lo, b.hi) == (0, 1)
        n = expr.not_term(x)
        assert expr.evaluate(n, {("k", None, "A"): 0}) == 1
        assert expr.evaluate(n, {("k", None, "A"): 5}) == 0
