"""Verdict-cache correctness: content addressing and invalidation.

The cache key is the whole story: an unchanged (IR, checker config,
toolchain version) triple must be served bit-identical findings
without re-checking, and *any* change to that triple must force a
genuine re-check.  These tests drive each invalidation axis — IR
mutation, checker configuration (``--spec-window``), toolchain
version — plus the one store's failure rule on the durable verdict
file: a torn tail is re-checked, a corrupt complete line is an error.
"""

import dataclasses
import json

import pytest

import repro
from repro.analysis.engine import CheckSpec, run_check_specs
from repro.cli import main
from repro.errors import StoreError
from repro.experiments.store import RECORDS_FILE, Store
from repro.lang import ir
from repro.lang.programs import lookup_program

pytestmark = pytest.mark.ctcheck


def _spec(**kw):
    defaults = dict(
        program=lookup_program(64)[0], symbolic=True, replay=False
    )
    defaults.update(kw)
    return CheckSpec(kind="program", name="lookup", **defaults)


def _findings_json(output):
    return json.dumps(
        [f.as_dict() for f in output.findings], sort_keys=True
    )


class TestContentAddressing:
    def test_same_spec_built_twice_hashes_equal(self):
        assert _spec().key() == _spec().key()

    def test_ir_mutation_changes_the_key(self):
        base = _spec()
        program = lookup_program(64)[0]
        mutated = dataclasses.replace(
            program,
            body=program.body + (ir.Const("pad", 0),),
        )
        assert base.key() != _spec(program=mutated).key()

    def test_checker_config_changes_the_key(self):
        assert _spec(spec_window=0).key() != _spec(spec_window=2).key()
        assert _spec(repair=False).key() != _spec(repair=True).key()
        assert _spec(symbolic=False).key() != _spec(symbolic=True).key()

    def test_version_bump_changes_the_key(self, monkeypatch):
        before = _spec().key()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert _spec().key() != before


class TestServingAndInvalidation:
    def test_identical_rerun_is_served_bit_identically(self):
        cache = Store()
        (cold,) = run_check_specs([_spec()], vcache=cache)
        assert cache.stats.stores == 1
        (warm,) = run_check_specs([_spec()], vcache=cache)
        assert cache.stats.stores == 1  # nothing re-checked
        assert cache.stats.hits == 1
        assert _findings_json(warm) == _findings_json(cold)

    def test_mutated_ir_is_rechecked(self):
        cache = Store()
        run_check_specs([_spec()], vcache=cache)
        program = lookup_program(64)[0]
        mutated = dataclasses.replace(
            program,
            body=program.body + (ir.Const("pad", 0),),
        )
        run_check_specs([_spec(program=mutated)], vcache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0

    def test_spec_window_change_is_rechecked(self):
        cache = Store()
        run_check_specs([_spec(spec_window=0)], vcache=cache)
        run_check_specs([_spec(spec_window=2)], vcache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0

    def test_version_bump_is_rechecked(self, monkeypatch):
        cache = Store()
        run_check_specs([_spec()], vcache=cache)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        run_check_specs([_spec()], vcache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0


class TestDurableSegment:
    def test_verdicts_survive_a_new_cache_instance(self, tmp_path):
        first = Store(str(tmp_path))
        (cold,) = run_check_specs([_spec()], vcache=first)
        second = Store(str(tmp_path))
        (warm,) = run_check_specs([_spec()], vcache=second)
        assert second.stats.hits == 1
        assert second.stats.stores == 0
        assert _findings_json(warm) == _findings_json(cold)

    def test_torn_tail_is_rechecked_and_reappended(self, tmp_path):
        (cold,) = run_check_specs([_spec()], vcache=Store(str(tmp_path)))
        records = tmp_path / RECORDS_FILE
        records.write_bytes(records.read_bytes()[:-30])  # no newline
        reopened = Store(str(tmp_path))
        assert len(reopened) == 0  # the torn verdict is dropped
        (again,) = run_check_specs([_spec()], vcache=reopened)
        assert (reopened.stats.misses, reopened.stats.stores) == (1, 1)
        assert _findings_json(again) == _findings_json(cold)
        assert len(Store(str(tmp_path))) == 1

    @pytest.mark.parametrize("garbage", [
        "not json at all\n",
        '{"key": "k", "value": "!!bad-base64"}\n',
    ])
    def test_garbage_line_raises_store_error(self, tmp_path, garbage):
        run_check_specs([_spec()], vcache=Store(str(tmp_path)))
        records = tmp_path / RECORDS_FILE
        records.write_text(garbage + records.read_text())
        with pytest.raises(StoreError, match="line 1 of"):
            Store(str(tmp_path))

    def test_memory_cache_needs_no_disk(self):
        cache = Store()
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert "k" in cache and len(cache) == 1


class TestCLI:
    def test_warm_pass_reports_zero_rechecked(self, capsys, tmp_path):
        argv = [
            "ctcheck", "--program", "lookup", "--no-workloads",
            "--json", "--vcache", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "1 target(s) checked" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 target(s) checked, 1 served from verdict cache" in warm.err
        assert warm.out == cold.out  # stdout JSON byte-identical

    def test_unusable_vcache_exits_2(self, capsys, tmp_path):
        """Exit 1 means error findings; an unusable cache is exit 2."""
        regular_file = tmp_path / "F"
        regular_file.write_text("")
        argv = [
            "ctcheck", "--program", "lookup", "--no-workloads",
            "--vcache", str(regular_file),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(regular_file) in err
