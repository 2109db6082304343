"""The verification engine: fan-out, determinism, memoization, failures.

The engine's contract is that a :class:`CheckSpec` fully determines
its output: serial, parallel, and cache-served runs must produce
byte-identical merged JSON.  That hinges on three mechanisms tested
here — per-program intern scopes (pointer-unique terms without
cross-program table growth), the solver's pointer-keyed verdict memos
(incremental re-proving across variants and repair rounds), and the
occupied-set digest fast path (same digest as the dense scan it
replaced).
"""

import json

import pytest

from repro.analysis.api import BUILTIN_PROGRAM_SPECS, run_ctcheck
from repro.analysis.engine import CheckSpec, check_target, run_check_specs
from repro.analysis.symrel import expr
from repro.analysis.symrel.solve import Solver
from repro.errors import EngineError
from repro.experiments.store import Store
from repro.lang.programs import lookup_program, swap_program

pytestmark = pytest.mark.ctcheck


def _spec(name="lookup", **kw):
    builders = {"lookup": lookup_program, "swap": swap_program}
    defaults = dict(symbolic=True, replay=False)
    defaults.update(kw)
    return CheckSpec(
        kind="program",
        name=name,
        program=builders[name](64)[0],
        **defaults,
    )


def _result_json(result):
    return json.dumps(result.as_dict(), indent=2, sort_keys=True)


def _outputs_json(outputs):
    return json.dumps(
        [
            {
                "name": o.name,
                "findings": [f.as_dict() for f in o.findings],
                "solver_stats": o.solver_stats,
                "repair": o.repair.summary() if o.repair else None,
            }
            for o in outputs
        ],
        indent=2,
        sort_keys=True,
    )


class TestInternScope:
    def test_terms_are_pointer_unique_within_a_scope(self):
        with expr.intern_scope():
            a = expr.op("add", expr.var("k"), expr.const(3))
            b = expr.op("add", expr.var("k"), expr.const(3))
            assert a is b

    def test_scope_restores_outer_table_and_bumps_epoch(self):
        outer = expr.const(7)
        before_size = expr.intern_table_size()
        before_epoch = expr.intern_epoch()
        with expr.intern_scope():
            assert expr.intern_epoch() == before_epoch + 1
            # The scope starts empty: the same constant is re-interned
            # as a fresh object in the inner table.
            inner = expr.const(7)
            assert inner is not outer
            expr.var("scratch")
        assert expr.intern_table_size() == before_size
        assert expr.intern_epoch() == before_epoch + 2
        # The outer table is intact: interning yields the old object.
        assert expr.const(7) is outer

    def test_check_target_leaves_global_tables_flat(self):
        before = expr.intern_table_size()
        check_target(_spec())
        assert expr.intern_table_size() == before

    def test_clear_intern_tables_empties_and_bumps(self):
        with expr.intern_scope():
            expr.var("x")
            epoch = expr.intern_epoch()
            expr.clear_intern_tables()
            assert expr.intern_table_size() == 0
            assert expr.intern_epoch() == epoch + 1


class TestSolverMemo:
    def test_repeated_query_is_a_memo_hit(self):
        with expr.intern_scope():
            solver = Solver()
            k = expr.var("k", side="l")
            a = expr.op("and", k, expr.const(0x3))
            b = expr.op("and", expr.var("k", side="r"), expr.const(0x3))
            first = solver.check_pair([], a, b)
            hits = solver.stats.memo_hits
            second = solver.check_pair([], a, b)
            assert solver.stats.memo_hits == hits + 1
            assert second is first

    def test_satisfiable_memoizes_none_verdicts_too(self):
        with expr.intern_scope():
            solver = Solver()
            path = [expr.op("eq", expr.var("k"), expr.const(1))]
            first = solver.satisfiable(path)
            hits = solver.stats.memo_hits
            assert solver.satisfiable(path) == first
            assert solver.stats.memo_hits == hits + 1

    def test_epoch_change_invalidates_memos(self):
        # Pointer-keyed memos are only sound within one intern epoch:
        # after the tables are swapped, term ids can be reused by
        # unrelated terms, so the solver must drop its memos.
        solver = Solver()
        with expr.intern_scope():
            a = expr.op("add", expr.var("k"), expr.const(1))
            solver.check_pair([], a, a)
            solver.satisfiable([expr.var("k")])
            assert solver._pair_memo or solver._sat_memo
        with expr.intern_scope():
            solver.satisfiable([expr.var("j")])
            assert len(solver._sat_memo) == 1
            assert not solver._pair_memo

    def test_engine_reuses_verdicts_across_repair_rounds(self):
        # One solver is shared across the symbolic check and every
        # repair round: each round's re-proof re-issues queries a
        # previous round already decided, which must come back from
        # the memo instead of re-running a decision tier.
        output = check_target(_spec(repair=True))
        assert output.solver_stats["memo_hits"] > 0


class TestEngineExecution:
    def test_outputs_come_back_in_submission_order(self):
        specs = [_spec("swap"), _spec("lookup")]
        outputs = run_check_specs(specs)
        assert [o.name for o in outputs] == ["swap", "lookup"]

    def test_duplicate_specs_are_checked_once(self):
        cache = Store()
        specs = [_spec(), _spec()]
        outputs = run_check_specs(specs, vcache=cache)
        assert cache.stats.stores == 1
        assert outputs[0] is outputs[1]

    def test_parallel_run_is_byte_identical_to_serial(self):
        specs = [
            CheckSpec(
                kind="program",
                name=name,
                program=BUILTIN_PROGRAM_SPECS[name](),
                symbolic=True,
                replay=False,
                repair=True,
            )
            for name in ("lookup", "swap", "conditional_sum")
        ]
        serial = run_check_specs(specs)
        parallel = run_check_specs(specs, jobs=2)
        assert _outputs_json(serial) == _outputs_json(parallel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_target_salvages_the_others(self, jobs):
        """One target raises: the others complete, are in
        EngineError.completed, and are already in the verdict cache."""
        good = [_spec("swap"), _spec("lookup")]
        bad = CheckSpec(kind="nonsense", name="broken")
        cache = Store()
        with pytest.raises(EngineError) as excinfo:
            run_check_specs([good[0], bad, good[1]], jobs=jobs, vcache=cache)
        err = excinfo.value
        assert [(f.spec.name, f.kind) for f in err.failures] == [
            ("broken", "error")
        ]
        assert "unknown CheckSpec kind" in err.failures[0].error
        keys = {spec.key() for spec in good}
        assert set(err.completed) == keys
        assert all(key in cache for key in keys)
        assert bad.key() not in cache

    def test_cached_run_is_byte_identical_to_fresh(self):
        cache = Store()
        kw = dict(
            programs=["lookup"],
            include_workloads=False,
            symbolic=True,
            replay=False,
        )
        cold = run_ctcheck(vcache=cache, **kw)
        assert cache.stats.stores == 1
        warm = run_ctcheck(vcache=cache, **kw)
        assert cache.stats.hits >= 1
        assert _result_json(cold) == _result_json(warm)

    def test_unknown_spec_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown CheckSpec kind"):
            check_target(CheckSpec(kind="nonsense", name="x"))


class TestSolverStatsAggregation:
    def test_stats_are_summed_across_programs(self):
        one = run_ctcheck(
            programs=["lookup"],
            include_workloads=False,
            symbolic=True,
            replay=False,
        )
        two = run_ctcheck(
            programs=["lookup", "swap"],
            include_workloads=False,
            symbolic=True,
            replay=False,
        )
        assert one.solver_stats["queries"] > 0
        assert two.solver_stats["queries"] > one.solver_stats["queries"]
        assert (
            two.as_dict()["solver_stats"] == two.solver_stats
        )

    def test_plain_lint_json_has_no_solver_stats_key(self):
        result = run_ctcheck(
            programs=["lookup"], include_workloads=False
        )
        assert "solver_stats" not in result.as_dict()


class TestDigestFastPath:
    def test_occupied_sets_matches_dense_scan(self):
        from repro.attacks.observer import ObservableTraceRecorder
        from repro.core.machine import Machine, MachineConfig

        machine = Machine(MachineConfig())
        base = machine.allocator.alloc(8 * 1024, "a")
        rec = ObservableTraceRecorder()
        for name in ("L1D", "L2", "LLC"):
            rec.attach(machine.hierarchy.level(name))
        for i in range(96):
            machine.load_word(base + 64 * i)
            machine.store_word(base + 64 * i, i)
        fast = rec.final_state_digest()
        # The reference: every set of every level, scanned densely.
        dense = []
        for name in ("L1D", "L2", "LLC"):
            cache = machine.hierarchy.level(name)
            for set_idx in range(cache.num_sets):
                contents = tuple(sorted(cache.set_contents(set_idx)))
                if contents:
                    order = cache.replacement_state(set_idx)
                    dense.append((cache.name, set_idx, contents, order))
        assert fast == tuple(dense)
        assert fast  # a non-trivial digest, not vacuous equality
