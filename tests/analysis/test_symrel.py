"""Relational symbolic execution: solver, explorer, verdicts, replay."""

import pytest

from repro.analysis.api import BUILTIN_PROGRAM_SPECS
from repro.analysis.symrel import (
    Solver,
    check_program_relational,
    symrel_findings,
)
from repro.analysis.symrel import expr
from repro.analysis.symrel.explore import array_bases
from repro.core.machine import Machine, MachineConfig
from repro.errors import ProtocolError
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
    lookup_program,
    speculative_lookup_program,
)

pytestmark = pytest.mark.symrel

#: builtins whose native variant is sequentially constant-time.
SEQUENTIALLY_SAFE = {"speculative_lookup"}


class TestSolver:
    def test_structural_equality_is_instant(self):
        solver = Solver()
        t = expr.op("add", expr.var("x"), expr.const(1))
        outcome = solver.check_pair([], t, t)
        assert outcome.proved and outcome.method == "structural"

    def test_exhaustive_refutes_narrow_pair(self):
        solver = Solver()
        a = expr.op("and", expr.var("k", side="A"), expr.const(0x7))
        b = expr.op("and", expr.var("k", side="B"), expr.const(0x7))
        outcome = solver.check_pair([], a, b)
        assert outcome.refuted and outcome.method == "exhaustive"
        model = outcome.model
        assert expr.evaluate(a, model) != expr.evaluate(b, model)

    def test_exhaustive_proves_secret_free_pair(self):
        solver = Solver()
        shared = expr.op("and", expr.var("n"), expr.const(0x7))
        a = expr.op("add", shared, expr.const(1))
        b = expr.op("add", shared, expr.const(1))
        # interning makes these identical, so force distinct terms:
        b2 = expr.op("add", expr.const(1), shared)
        assert solver.check_pair([], a, b).proved
        assert solver.check_pair([], a, b2).proved

    def test_path_constraints_restrict_models(self):
        solver = Solver()
        ka = expr.var("k", side="A")
        kb = expr.var("k", side="B")
        a = expr.op("and", ka, expr.const(0x3))
        b = expr.op("and", kb, expr.const(0x3))
        # under the path "both low bits are zero" the pair is equal
        path = [
            expr.op("eq", a, expr.const(0)),
            expr.op("eq", b, expr.const(0)),
        ]
        assert solver.check_pair(path, a, b).proved

    def test_candidate_search_handles_wide_vars(self):
        solver = Solver()
        # full-width compare: 64 influential bits, beyond exhaustive
        a = expr.op("ge", expr.var("v", side="A"), expr.const(100))
        b = expr.op("ge", expr.var("v", side="B"), expr.const(100))
        outcome = solver.check_pair([], a, b)
        assert outcome.refuted and outcome.method == "candidate"

    def test_satisfiable(self):
        solver = Solver()
        masked = expr.op("and", expr.var("k", side="A"), expr.const(0x3))
        assert solver.satisfiable([expr.op("eq", masked, expr.const(3))])
        assert (
            solver.satisfiable([expr.op("eq", masked, expr.const(9))])
            is False
        )
        assert solver.satisfiable([expr.const(0)]) is False
        assert solver.satisfiable([expr.const(1)]) is True


class TestArrayBases:
    @pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAM_SPECS))
    def test_mirror_matches_real_allocator(self, name):
        program = BUILTIN_PROGRAM_SPECS[name]()
        machine = Machine(MachineConfig())
        expected = {
            decl.name: machine.allocator.alloc_words(
                decl.size, decl.name
            )
            for decl in program.arrays
        }
        assert array_bases(program) == expected


class TestVerdictMatrix:
    @pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAM_SPECS))
    def test_native_variant(self, name):
        program = BUILTIN_PROGRAM_SPECS[name]()
        result = check_program_relational(
            program, mitigate=False, replay=False
        )
        if name in SEQUENTIALLY_SAFE:
            assert result.verdict == "proved"
        else:
            assert result.verdict == "refuted"
            assert result.model is not None
            assert "vs" in result.model.describe()

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAM_SPECS))
    def test_mitigated_variant_proved(self, name):
        program = BUILTIN_PROGRAM_SPECS[name]()
        result = check_program_relational(
            program, mitigate=True, spec_window=1, replay=False
        )
        assert result.verdict == "proved"
        assert result.spec_verdict == "proved"

    def test_refutation_model_is_a_real_witness(self):
        program = lookup_program(64)[0]
        result = check_program_relational(
            program, mitigate=False, replay=False
        )
        refutation = result.exploration.refutation
        obs = refutation.observation
        model = refutation.outcome.model
        assert expr.evaluate(obs.a, model) != expr.evaluate(obs.b, model)


class TestSpeculativeMode:
    def test_spec_gap_fixture(self):
        program = speculative_lookup_program(64)[0]
        sequential = check_program_relational(
            program, mitigate=False, spec_window=0, replay=False
        )
        assert sequential.verdict == "proved"
        assert sequential.spec_verdict is None

        speculative = check_program_relational(
            program, mitigate=False, spec_window=1, replay=False
        )
        assert speculative.verdict == "proved"
        assert speculative.spec_verdict == "refuted"
        assert speculative.spec_model is not None
        assert "transient" in speculative.spec_observation

    def test_mitigation_closes_the_spec_leak(self):
        # Linearizing the secret branch removes the misprediction
        # surface entirely.
        program = speculative_lookup_program(64)[0]
        result = check_program_relational(
            program, mitigate=True, spec_window=4, replay=False
        )
        assert result.verdict == "proved"
        assert result.spec_verdict == "proved"


class TestReplay:
    def test_counterexample_confirmed_end_to_end(self):
        program = lookup_program(64)[0]
        result = check_program_relational(
            program, mitigate=False, replay=True
        )
        assert result.verdict == "refuted"
        assert result.replay is not None
        assert result.replay.confirmed
        assert result.replay.divergences

    def test_mitigation_closes_the_replayed_pair(self):
        # The very pair that leaks natively is indistinguishable on
        # the mitigated machine.
        from repro.analysis.symrel.replay import replay_counterexample

        program = lookup_program(64)[0]
        result = check_program_relational(
            program, mitigate=False, replay=False
        )
        replayed = replay_counterexample(
            program,
            result.model.side("A"),
            result.model.side("B"),
            mitigate=True,
        )
        assert replayed.error is None
        assert not replayed.confirmed


class TestLoopHandling:
    def test_symbolic_trip_count_uses_interval_facts(self):
        # count = n & 7 is symbolic but interval-bounded: the loop
        # guard-unrolls and the public-only body proves.
        program = Program(
            name="bounded_loop",
            inputs=("n",),
            arrays=(ArrayDecl("t", 8),),
            body=(
                BinOp("m", "and", "n", 7),
                For("i", "m", (Load("x", "t", "i"),)),
            ),
            outputs=("x",),
        )
        result = check_program_relational(
            program, mitigate=False, replay=False
        )
        assert result.verdict == "proved"

    def test_unbounded_trip_count_is_unknown_not_proved(self):
        program = Program(
            name="unbounded_loop",
            inputs=("n",),
            arrays=(ArrayDecl("t", 8),),
            body=(
                For("i", "n", (Const("x", 1),)),
            ),
            outputs=("x",),
        )
        result = check_program_relational(
            program, mitigate=False, replay=False
        )
        assert result.verdict == "unknown"
        assert result.notes


def nested_secret_if_program():
    """A secret ``If`` nesting another, with a predicated ``Store`` and
    ``Select``, and a raw public index whose bound does not fold."""
    return Program(
        name="nested_secret_if",
        inputs=("p",),
        secret_inputs=("s",),
        arrays=(ArrayDecl("t", 16),),
        body=(
            Load("y", "t", "p"),
            BinOp("c", "and", "s", 1),
            BinOp("d", "and", "s", 2),
            Const("x", 0),
            If(
                "c",
                then_body=(
                    If(
                        "d",
                        then_body=(Load("x", "t", 3),),
                        else_body=(Store("t", "p", "s"),),
                    ),
                ),
                else_body=(Select("x", "d", 7, "x"),),
            ),
        ),
        outputs=("x", "y"),
    )


def secret_loop_program():
    """A loop under a secret branch, which the linearizer rejects."""
    return Program(
        name="secret_loop",
        secret_inputs=("s",),
        arrays=(ArrayDecl("t", 4),),
        body=(
            Const("x", 0),
            If("s", then_body=(For("i", 2, (Load("x", "t", "i"),)),)),
        ),
        outputs=("x",),
    )


def transient_shapes_program():
    """A never-taken public branch whose body holds an ``If`` and a
    ``For`` around a secret-indexed ``Store``: only a transient walk
    reaches them."""
    return Program(
        name="transient_shapes",
        inputs=("p",),
        secret_inputs=("s",),
        arrays=(ArrayDecl("t", 64),),
        body=(
            BinOp("m", "and", "s", 63),
            BinOp("q", "and", "p", 63),
            BinOp("dead", "gt", "q", 63),
            If(
                "dead",
                then_body=(
                    If(
                        "p",
                        then_body=(Load("w", "t", 1),),
                        else_body=(Load("w", "t", 2),),
                    ),
                    For("i", 1, (Store("t", "m", "i"),)),
                ),
            ),
            Load("out", "t", 0),
        ),
        outputs=("out",),
    )


class TestExplorerStatements:
    """Explorer statements that no shipped program reaches."""

    #: (program, mitigate, spec_window) -> verdict, spec_verdict,
    #: paths, steps, observations_checked
    PINS = [
        (nested_secret_if_program, False, 2, "refuted", None, 0, 5, 2),
        (nested_secret_if_program, True, 2, "proved", "proved", 1, 9, 1),
        (secret_loop_program, False, 2, "refuted", None, 0, 2, 1),
        (transient_shapes_program, False, 2, "proved", "proved", 1, 7, 3),
        (transient_shapes_program, True, 2, "proved", "proved", 1, 7, 3),
        (transient_shapes_program, False, 6, "proved", "refuted", 1, 11, 5),
        (transient_shapes_program, True, 6, "proved", "proved", 1, 11, 4),
    ]

    @pytest.mark.parametrize(
        "build, mitigate, window, verdict, spec_verdict, paths, steps, "
        "observations",
        PINS,
        ids=[
            f"{build.__name__[:-8]}-"
            f"{'mitigated' if mitigate else 'native'}-w{window}"
            for build, mitigate, window, *_ in PINS
        ],
    )
    def test_pinned_exploration(
        self, build, mitigate, window, verdict, spec_verdict, paths,
        steps, observations,
    ):
        program = build()
        result = check_program_relational(
            program, mitigate=mitigate, spec_window=window,
            replay=not mitigate,
        )
        exploration = result.exploration
        assert (
            result.verdict,
            result.spec_verdict,
            exploration.paths,
            exploration.steps,
            exploration.observations_checked,
        ) == (verdict, spec_verdict, paths, steps, observations)
        if result.verdict == "refuted":
            assert result.replay.confirmed

    def test_transient_walk_reaches_the_store_in_the_loop(self):
        result = check_program_relational(
            transient_shapes_program(), spec_window=6, replay=False
        )
        assert result.spec_observation == (
            "transient addr observation at body[3].then[1].body[0]"
        )

    def test_loop_under_secret_branch_is_rejected(self):
        with pytest.raises(ProtocolError, match="under a secret branch"):
            check_program_relational(
                secret_loop_program(), mitigate=True, replay=False
            )


class TestFindings:
    def test_native_leak_renders_ct_rel(self):
        program = lookup_program(64)[0]
        findings = symrel_findings(program, replay=False)
        rules = {f.rule for f in findings}
        assert "CT-REL" in rules  # native refuted
        assert "CT-PROVED" in rules  # mitigated proved
        rel = next(f for f in findings if f.rule == "CT-REL")
        assert rel.severity == "error"
        assert "vs" in rel.message

    def test_spec_fixture_renders_ct_spec(self):
        program = speculative_lookup_program(64)[0]
        findings = symrel_findings(program, spec_window=2, replay=False)
        rules = {f.rule for f in findings}
        assert "CT-SPEC" in rules
        assert "CT-REL" not in rules
        spec = next(f for f in findings if f.rule == "CT-SPEC")
        assert spec.severity == "warning"

    def test_findings_are_deterministic(self):
        program = lookup_program(64)[0]
        first = [
            f.as_dict() for f in symrel_findings(program, replay=False)
        ]
        second = [
            f.as_dict() for f in symrel_findings(program, replay=False)
        ]
        assert first == second
