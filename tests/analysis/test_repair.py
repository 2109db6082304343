"""Automatic mitigation synthesis: localize, transform, re-prove.

Every leaky builtin must repair to CT-PROVED (sequential and
speculative) with provenance for every applied transform, lint clean
against the emitted DS declarations, stay within the 1.5x overhead
budget vs the executor's hand-mitigation, and — the ground truth —
run clean under the dynamic relational sanitizer *without* the
executor's on-the-fly mitigation.  A Hypothesis property pins the
other half of the contract: repair never changes what the program
computes.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.api import BUILTIN_PROGRAM_SPECS
from repro.analysis.ctlint import lint
from repro.analysis.facts import program_facts
from repro.analysis.repair import repair_program
from repro.analysis.repair.driver import exercise_inputs, measure_overhead
from repro.analysis.repair.localize import (
    KIND_ACCESS,
    KIND_BRANCH,
    KIND_TRIPCOUNT,
    LeakSite,
    site_from_observation,
    tripcount_sites,
)
from repro.analysis.sanitizer import sanitize_program
from repro.analysis.symrel.explore import Observation
from repro.errors import TransformError
from repro.experiments.config import build_context
from repro.lang import ir
from repro.lang.executor import run_program
from repro.lang.pretty import statement_paths

pytestmark = pytest.mark.repair

BUILTINS = sorted(BUILTIN_PROGRAM_SPECS)
SPEC_WINDOW = 2
MAX_OVERHEAD_RATIO = 1.5
TRANSFORM_KINDS = {"linearize", "ds-route", "pad-tripcount"}
RULES = {"CT-REL", "CT-SPEC", "CT-TRIPCOUNT", "CT-UNKNOWN"}


@functools.lru_cache(maxsize=None)
def repaired(name):
    """Repair each builtin once per session — the loop is expensive."""
    return repair_program(
        BUILTIN_PROGRAM_SPECS[name](), spec_window=SPEC_WINDOW
    )


def _inputs_for_secret(program):
    """``inputs_for_secret`` callable with line-distant secret values.

    Secret scalars flip between 0 and 65535 (indices land on different
    cache lines after any mask/mod clamp); secret array contents flip
    between all-zero and a spread of values.  Public parts stay fixed
    across secrets so the relational check is not vacuous.
    """
    base_inputs, base_arrays = exercise_inputs(program, seed=3)
    secret_arrays = {d.name for d in program.arrays if d.secret}

    def for_secret(secret):
        inputs = dict(base_inputs)
        arrays = {k: list(v) for k, v in base_arrays.items()}
        for name in program.secret_inputs:
            inputs[name] = 0 if secret == 0 else 65535
        for name in secret_arrays:
            size = len(arrays[name])
            if secret == 0:
                arrays[name] = [0] * size
            else:
                arrays[name] = [(37 * (i + 1)) % (1 << 12) for i in range(size)]
        return inputs, arrays

    return for_secret


class TestEndToEnd:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_repairs_to_proved(self, name):
        res = repaired(name)
        assert res.proved, res.summary()
        assert res.rounds >= 1
        # Every builtin ships leaky: at least one transform applied.
        assert res.applied

    @pytest.mark.parametrize("name", BUILTINS)
    def test_residual_is_the_proof(self, name):
        res = repaired(name)
        assert res.residual is not None
        assert res.residual.verdict == "proved"
        if SPEC_WINDOW > 0:
            assert res.residual.spec_verdict == "proved"

    @pytest.mark.parametrize("name", BUILTINS)
    def test_transform_provenance(self, name):
        res = repaired(name)
        final_paths = dict(statement_paths(res.repaired))
        for t in res.applied:
            assert t.kind in TRANSFORM_KINDS
            assert t.rule in RULES
            assert t.final_path in final_paths
            assert t.description

    @pytest.mark.parametrize("name", BUILTINS)
    def test_overhead_within_budget(self, name):
        res = repaired(name)
        assert res.overhead is not None
        assert res.overhead.vs_manual <= MAX_OVERHEAD_RATIO, (
            res.overhead.as_dict()
        )
        assert res.overhead.repaired_cycles > 0
        assert res.overhead.manual_cycles > 0

    @pytest.mark.parametrize("name", BUILTINS)
    def test_repaired_lints_clean_with_emitted_ds(self, name):
        res = repaired(name)
        errors = [
            f
            for f in lint(res.repaired, ds_map=res.ds_declarations)
            if f.severity == "error"
        ]
        assert not errors, [f"{f.rule}: {f.message}" for f in errors]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_repaired_is_sanitizer_clean_unmitigated(self, name):
        # The ground truth: the repaired program, run natively (no
        # executor mitigation), shows identical attacker-observable
        # traces across line-distant secrets on the ct scheme.
        res = repaired(name)
        report = sanitize_program(
            res.repaired,
            _inputs_for_secret(res.repaired),
            scheme="ct",
            mitigate=False,
            secrets=(0, 1),
        )
        assert report.clean, report.describe()

    def test_native_lookup_is_sanitizer_dirty(self):
        # Sanity that the clean-after check above is not vacuous: the
        # same harness flags the unrepaired program.
        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        report = sanitize_program(
            program,
            _inputs_for_secret(program),
            scheme="ct",
            mitigate=False,
            secrets=(0, 1),
        )
        assert not report.clean


class TestEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(BUILTINS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_repaired_preserves_public_outputs(self, name, seed):
        # Repair must be semantics-preserving: the repaired program run
        # natively computes exactly what the original computes under
        # the executor's on-the-fly mitigation (which is itself
        # equivalence-checked against the pure-python references).
        res = repaired(name)
        inputs, arrays = exercise_inputs(res.original, seed=seed)
        want = run_program(
            res.original,
            build_context("ct"),
            dict(inputs),
            {k: list(v) for k, v in arrays.items()},
            mitigate=True,
        )
        got = run_program(
            res.repaired,
            build_context("ct"),
            dict(inputs),
            {k: list(v) for k, v in arrays.items()},
            mitigate=False,
        )
        assert got == want


class TestLocalizer:
    def _secret_count_program(self, bounded):
        body = [ir.BinOp("n", "mod", "s", 8)] if bounded else []
        count = "n" if bounded else "s"
        return ir.Program(
            name="secret_count",
            secret_inputs=("s",),
            arrays=(ir.ArrayDecl("data", 8),),
            body=tuple(body)
            + (
                ir.Const("acc", 0),
                ir.For(
                    "i",
                    count,
                    (
                        ir.Load("v", "data", "i"),
                        ir.BinOp("acc", "add", "acc", "v"),
                    ),
                ),
            ),
            outputs=("acc",),
        )

    def test_tripcount_site_with_interval_bound(self):
        program = self._secret_count_program(bounded=True)
        sites = tripcount_sites(program_facts(program))
        assert len(sites) == 1
        site = sites[0]
        assert site.kind == KIND_TRIPCOUNT
        assert site.rule == "CT-TRIPCOUNT"
        assert site.path == "body[2]"
        assert site.bound == 7  # s mod 8 is in [0, 7]
        assert site.slice  # provenance reaches the mod

    def test_tripcount_site_unbounded_has_no_bound(self):
        program = self._secret_count_program(bounded=False)
        sites = tripcount_sites(program_facts(program))
        assert len(sites) == 1
        assert sites[0].bound is None
        assert "unbounded" in sites[0].detail

    def test_branch_observation_localizes_with_slice(self):
        program = BUILTIN_PROGRAM_SPECS["binary_search"]()
        path = "body[2].body[5]"  # the If on 'go'
        obs = Observation(kind="branch", a=None, b=None, stmt_path=path)
        site = site_from_observation(program, obs, "CT-REL")
        assert site is not None
        assert site.kind == KIND_BRANCH
        assert site.path == path
        assert site.slice  # cond's backward slice is non-trivial

    def test_addr_observation_localizes_access(self):
        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        obs = Observation(kind="addr", a=None, b=None, stmt_path="body[1]")
        site = site_from_observation(program, obs, "CT-SPEC")
        assert site is not None
        assert site.kind == KIND_ACCESS
        assert site.rule == "CT-SPEC"

    def test_observation_without_path_is_not_localizable(self):
        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        obs = Observation(kind="branch", a=None, b=None, stmt_path="")
        assert site_from_observation(program, obs, "CT-REL") is None

    def test_observation_kind_statement_mismatch(self):
        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        # branch observation pointing at a Load: no transform applies
        obs = Observation(kind="branch", a=None, b=None, stmt_path="body[1]")
        assert site_from_observation(program, obs, "CT-REL") is None
        # stale path from a previous round's coordinates
        obs = Observation(kind="addr", a=None, b=None, stmt_path="body[9]")
        assert site_from_observation(program, obs, "CT-REL") is None


class TestDriverEdges:
    def test_bounded_secret_tripcount_repairs(self):
        program = TestLocalizer()._secret_count_program(bounded=True)
        res = repair_program(program, spec_window=0, measure=False)
        assert res.proved, res.summary()
        assert any(t.kind == "pad-tripcount" for t in res.applied)

    def test_unbounded_secret_tripcount_is_irreparable(self):
        program = TestLocalizer()._secret_count_program(bounded=False)
        res = repair_program(program, spec_window=0, measure=False)
        assert res.verdict == "irreparable"
        assert "bound" in res.reason

    def test_already_clean_program_needs_no_transform(self):
        program = ir.Program(
            name="clean",
            inputs=("x",),
            secret_inputs=("s",),
            body=(
                ir.BinOp("r", "xor", "x", "s"),
                ir.BinOp("r", "and", "r", 255),
            ),
            outputs=("r",),
        )
        res = repair_program(program, spec_window=SPEC_WINDOW, measure=False)
        assert res.proved
        assert res.applied == []
        assert res.repaired is program
        assert res.overhead is None

    def test_max_rounds_zero_reports_unknown(self):
        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        res = repair_program(program, max_rounds=0, measure=False)
        assert res.verdict == "unknown"
        assert "round" in res.reason

    def test_ds_declarations_match_routed_arrays(self):
        res = repaired("des")
        routed = {
            stmt.array
            for _, stmt in statement_paths(res.repaired)
            if isinstance(stmt, (ir.Load, ir.Store)) and stmt.ds
        }
        assert set(res.ds_declarations) == routed
        for name, (ds, base) in res.ds_declarations.items():
            assert len(ds) > 0
            assert base >= 0

    def test_apply_rejects_unknown_kind(self):
        from repro.analysis.repair.driver import _apply

        program = BUILTIN_PROGRAM_SPECS["lookup"]()
        facts = program_facts(program)
        site = LeakSite(
            path="body[1]", kind="nonsense", rule="CT-REL", detail=""
        )
        with pytest.raises(TransformError):
            _apply(program, site, facts)


class TestMeasureOverhead:
    """Each run of the triple is on a fresh machine of the scheme."""

    @staticmethod
    def _fresh_cycles(original, program, mitigate):
        # measure_overhead draws the inputs of every run from the
        # original program.
        inputs, arrays = exercise_inputs(original)
        ctx = build_context("ct")
        run_program(program, ctx, inputs, arrays, mitigate=mitigate)
        return float(ctx.machine.stats.cycles)

    def test_triple_matches_independent_fresh_runs(self):
        original = BUILTIN_PROGRAM_SPECS["lookup"]()
        fixed = repaired("lookup").repaired
        overhead = measure_overhead(original, fixed)
        fresh = functools.partial(self._fresh_cycles, original)
        assert overhead.native_cycles == fresh(original, False)
        assert overhead.repaired_cycles == fresh(fixed, False)
        assert overhead.manual_cycles == fresh(original, True)

    def test_repeated_measurement_is_identical(self):
        # No run leaves state behind for the next one to start from.
        original = BUILTIN_PROGRAM_SPECS["lookup"]()
        fixed = repaired("lookup").repaired
        assert measure_overhead(original, fixed) == measure_overhead(
            original, fixed
        )
