"""The one store, sweep manifests, and checkpoint/resume.

Covers the durability layer end to end: the append-only store
(reopen, torn-tail truncation, corruption errors), its one failure
rule applied identically by all three users (the result cache, a run
directory and the verdict cache), sweep manifests (spec round-trips
that preserve the content hash), and the acceptance bar — a sweep
whose pool is killed mid-flight and then resumed from its manifest is
bit-identical to an uninterrupted run, with the already-durable specs
demonstrably served from the store instead of re-simulated.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.api import BUILTIN_PROGRAM_SPECS
from repro.analysis.engine import CheckSpec, run_check_specs
from repro.core.machine import MachineConfig
from repro.errors import EngineError, StoreError
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import RunResult
from repro.experiments.store import (
    MANIFEST_FILE,
    RECORDS_FILE,
    RunDirectory,
    Store,
    SweepManifest,
    resume,
    served_from,
    spec_from_dict,
    spec_to_dict,
)

#: Small, fast grid: 4 unique specs, ~0.1 s each.
SIZES = (200, 300)
SCHEMES = ("insecure", "ct")


def grid_specs():
    return [
        RunSpec("histogram", size, scheme)
        for size in SIZES
        for scheme in SCHEMES
    ]


def fake_result(i: int) -> RunResult:
    """A RunResult with tuple-shaped output (bit-identity canary)."""
    return RunResult(
        workload="w",
        size=i,
        scheme="s",
        label=f"w_{i}",
        output=(i, (i + 1, i + 2)),
        counters={"cycles": float(i)},
    )


def stored_keys(path) -> list:
    """The key of every complete line of a store's records file."""
    with open(os.path.join(path, RECORDS_FILE), encoding="utf-8") as fh:
        return [json.loads(line)["key"] for line in fh]


# ---------------------------------------------------------------------------
# Store: append, reopen, torn tail, corruption
# ---------------------------------------------------------------------------


class TestResultStore:
    """The one :class:`Store` that holds every result and verdict."""

    def test_round_trip_is_bit_identical(self, tmp_path):
        store = Store(str(tmp_path / "s"))
        result = fake_result(1)
        store.put("k1", result)
        reopened = Store(str(tmp_path / "s"))
        back = reopened.get("k1")
        # tuples stay tuples: the payload must not pass through JSON
        assert back.output == (1, (2, 3))
        assert isinstance(back.output, tuple)
        assert back == result

    def test_duplicate_put_is_suppressed(self, tmp_path):
        store = Store(str(tmp_path / "s"))
        store.put("k", fake_result(1))
        store.put("k", fake_result(2))
        assert len(store) == 1
        assert store.stats.stores == 1
        assert stored_keys(tmp_path / "s") == ["k"]

    def test_appends_continue_after_reopen(self, tmp_path):
        path = str(tmp_path / "s")
        Store(path).put("a", fake_result(1))
        second = Store(path)
        second.put("b", fake_result(2))
        assert os.listdir(path) == [RECORDS_FILE]
        assert stored_keys(path) == ["a", "b"]
        assert len(Store(path)) == 2

    def test_torn_tail_is_truncated_before_the_next_append(self, tmp_path):
        path = tmp_path / "s"
        store = Store(str(path))
        store.put("a", fake_result(1))
        store.put("b", fake_result(2))
        records = path / RECORDS_FILE
        intact = records.read_bytes()
        # simulate a crash mid-append: a torn trailing record
        with open(records, "a", encoding="utf-8") as fh:
            fh.write('{"key": "c", "value": "AAAA')  # torn
        reopened = Store(str(path))
        assert sorted(reopened.keys()) == ["a", "b"]
        # the writable open cut the torn bytes, so the next append
        # starts on a line of its own and loads on the next open
        assert records.read_bytes() == intact
        reopened.put("c", fake_result(3))
        assert Store(str(path)).get("c") == fake_result(3)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "s"
        store = Store(str(path))
        store.put("a", fake_result(1))
        store.put("b", fake_result(2))
        records = path / RECORDS_FILE
        lines = records.read_text().splitlines()
        lines[0] = lines[0][:20]  # corrupt a NON-final record
        records.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="line 1 of .*records.jsonl"):
            Store(str(path))

    def test_readonly_store(self, tmp_path):
        path = str(tmp_path / "s")
        Store(path).put("a", fake_result(1))
        ro = Store(path, readonly=True)
        assert ro.get("a") is not None
        with pytest.raises(StoreError):
            ro.put("b", fake_result(2))
        with pytest.raises(StoreError):
            Store(str(tmp_path / "missing"), readonly=True)

    def test_readonly_reader_leaves_a_torn_tail_in_place(self, tmp_path):
        """An offline reader must see a running sweep's complete
        records but never modify the file (the writer owns it)."""
        path = tmp_path / "s"
        Store(str(path)).put("a", fake_result(1))
        records = path / RECORDS_FILE
        with open(records, "a", encoding="utf-8") as fh:
            fh.write('{"key": "b", "val')  # an append in flight
        before = records.read_bytes()
        ro = Store(str(path), readonly=True)
        assert ro.get("a") is not None
        assert "b" not in ro
        assert records.read_bytes() == before


# ---------------------------------------------------------------------------
# one failure rule for all three users of the store
# ---------------------------------------------------------------------------


def _run_experiments(cache=None, store=None):
    specs = [RunSpec("histogram", 200, scheme) for scheme in SCHEMES]
    return run_many(specs, cache=cache, store=store)


def _run_checks(vcache):
    specs = [
        CheckSpec(kind="program", name=name,
                  program=BUILTIN_PROGRAM_SPECS[name]())
        for name in ("lookup", "swap")
    ]
    return run_check_specs(specs, vcache=vcache)


#: Each user of the store: how it opens one, and one batch through it.
USERS = {
    "result-cache": (Store, lambda s: _run_experiments(cache=s)),
    "run-directory": (RunDirectory, lambda s: _run_experiments(store=s)),
    "verdict-cache": (Store, _run_checks),
}


class TestFailureRule:
    @pytest.mark.parametrize("user", list(USERS))
    def test_torn_tail_is_a_miss_and_a_corrupt_line_an_error(
        self, tmp_path, user
    ):
        open_store, run_batch = USERS[user]
        path = str(tmp_path / "d")
        first = run_batch(open_store(path))
        records = tmp_path / "d" / RECORDS_FILE
        head, tail = records.read_bytes().splitlines(keepends=True)

        # a crash tore the last record: it is dropped (and cut from the
        # file), then re-computed and re-appended as a miss
        records.write_bytes(head + tail[: len(tail) // 2])
        store = open_store(path)
        assert len(store) == 1
        assert records.read_bytes() == head
        assert run_batch(store) == first
        stats = store.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert records.read_bytes() == head + tail
        assert len(open_store(path)) == 2

        # a complete line that does not decode is an error, wherever it
        # sits, and the message names the file and the line
        for lines, bad in (([b"garbage\n", head, tail], 1),
                           ([head, b"{}\n", tail], 2)):
            records.write_bytes(b"".join(lines))
            with pytest.raises(StoreError) as excinfo:
                open_store(path)
            assert f"line {bad} of {records}" in str(excinfo.value)


# ---------------------------------------------------------------------------
# spec serialization + manifests
# ---------------------------------------------------------------------------


class TestSpecRoundTrip:
    def test_plain_spec_preserves_content_hash(self):
        spec = RunSpec("histogram", 300, "ct", seed=7)
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back == spec
        assert back.key() == spec.key()

    def test_crypto_spec_preserves_content_hash(self):
        spec = RunSpec("AES", 0, "bia-l1d", kind="crypto")
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.key() == spec.key()

    def test_custom_config_preserves_content_hash(self):
        """Nested MachineConfig (frozen, with CostModel) round-trips
        through JSON to an equal spec with an equal cache key."""
        config = MachineConfig(replacement_seed=11, l1d_assoc=4)
        spec = RunSpec(
            "histogram", 200, "bia-l2", config=config, fetch_threshold=4
        )
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.config == config
        assert back.key() == spec.key()


class TestSweepManifest:
    def test_register_and_read_back_in_order(self, tmp_path):
        manifest = SweepManifest(str(tmp_path))
        specs = grid_specs()
        pairs = [(s, s.key()) for s in specs]
        assert manifest.register(pairs, settings={"jobs": 2}) == 4
        assert manifest.exists()
        assert manifest.specs() == specs
        assert manifest.keys() == [s.key() for s in specs]
        assert manifest.settings()["jobs"] == 2

    def test_register_dedups_and_merges_settings(self, tmp_path):
        manifest = SweepManifest(str(tmp_path))
        specs = grid_specs()
        pairs = [(s, s.key()) for s in specs]
        manifest.register(pairs[:2], settings={"jobs": 2})
        # keys a manifest already holds survive a merge (older
        # manifests also recorded retry settings)
        added = manifest.register(pairs, settings={"retries": 1})
        assert added == 2  # only the unseen half
        assert manifest.keys() == [s.key() for s in specs]
        assert manifest.settings() == {"jobs": 2, "retries": 1}

    def test_read_missing_or_corrupt_raises(self, tmp_path):
        manifest = SweepManifest(str(tmp_path))
        with pytest.raises(StoreError):
            manifest.read()
        (tmp_path / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(StoreError):
            manifest.read()


# ---------------------------------------------------------------------------
# engine integration: run directory, stored hits, offline
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_sweep_writes_manifest_before_results(self, tmp_path):
        rd = RunDirectory(str(tmp_path / "run"))
        specs = grid_specs()
        run_many(specs, cache=None, store=rd)
        manifest = SweepManifest(str(tmp_path / "run"))
        assert manifest.keys() == [s.key() for s in specs]
        assert manifest.settings()["jobs"] == 1
        assert rd.pending_specs() == []

    def test_second_run_served_from_store_without_simulation(
        self, tmp_path, break_specs
    ):
        rd_path = str(tmp_path / "run")
        first = run_many(grid_specs(), cache=None, store=RunDirectory(rd_path))
        break_specs()  # any simulation now raises
        rd = RunDirectory(rd_path)
        second = run_many(grid_specs(), cache=None, store=rd)
        assert rd.stats.hits == 4
        assert rd.stats.stores == 0
        for a, b in zip(first, second):
            assert a.counters == b.counters

    def test_cache_hits_are_backfilled_into_the_store(self, tmp_path):
        """A result served from the in-memory cache must still become
        durable, or a resume would re-simulate it."""
        cache = Store()
        specs = grid_specs()
        run_many(specs, cache=cache)  # warm the cache only
        run_many(specs, cache=cache, store=RunDirectory(str(tmp_path / "run")))
        assert len(RunDirectory(str(tmp_path / "run"))) == 4

    def test_salvage_at_delivery_on_partial_failure(
        self, tmp_path, break_specs
    ):
        """Completed specs of a failing batch are durable before the
        EngineError propagates."""
        break_specs(scheme="ct")
        for jobs in (1, 2):
            rd = RunDirectory(str(tmp_path / f"run-{jobs}"))
            with pytest.raises(EngineError):
                run_many(grid_specs(), jobs=jobs, cache=None, store=rd)
            survivors = RunDirectory(str(tmp_path / f"run-{jobs}"))
            assert len(survivors) == 2  # the two insecure specs
            assert len(survivors.pending_specs()) == 2

    def test_offline_serves_store_and_errors_on_miss(self, tmp_path):
        rd_path = str(tmp_path / "run")
        specs = grid_specs()
        baseline = run_many(specs, cache=None, store=RunDirectory(rd_path))
        with served_from(rd_path) as rd:
            offline = run_many(specs, cache=None)
            assert [r.counters for r in offline] == [
                r.counters for r in baseline
            ]
            missing = RunSpec("histogram", 400, "ct")
            with pytest.raises(EngineError) as excinfo:
                run_many([missing], cache=None)
        (failure,) = excinfo.value.failures
        assert failure.kind == "missing"

    def test_served_from_restores_engine_settings(self, tmp_path):
        rd_path = str(tmp_path / "run")
        run_many(grid_specs()[:1], cache=None, store=RunDirectory(rd_path))
        before = parallel.current_settings()
        with served_from(rd_path):
            inside = parallel.current_settings()
            assert inside.offline and inside.store is not None
        after = parallel.current_settings()
        assert after.store is before.store
        assert after.offline == before.offline


# ---------------------------------------------------------------------------
# the acceptance bar: kill the pool mid-sweep, resume, bit-identical
# ---------------------------------------------------------------------------


class TestCrashAndResume:
    def test_resume_without_manifest_raises(self, tmp_path):
        """Nothing is created: not the directory, nothing inside it."""
        for path in (tmp_path, tmp_path / "missing"):
            with pytest.raises(StoreError, match="no manifest.json"):
                resume(str(path))
        assert os.listdir(tmp_path) == []

    def test_killed_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch, break_specs
    ):
        """A worker killed mid-sweep -> EngineError whose failures are
        all crashes, with every completed spec already durable;
        resume() completes exactly the remainder, serving the durable
        specs from the store; the union is spec-complete,
        duplicate-free, and value-identical to an uninterrupted run."""
        specs = grid_specs()
        uninterrupted = [spec.run() for spec in specs]

        # the last spec kills the worker it lands on: the pool breaks
        # and every spec not yet delivered fails as a crash
        break_specs(crash=True, scheme="ct", size=300)
        rd_path = str(tmp_path / "run")
        rd = RunDirectory(rd_path)
        with pytest.raises(EngineError) as excinfo:
            run_many(specs, jobs=2, cache=None, store=rd)
        err = excinfo.value
        assert {f.kind for f in err.failures} == {"crash"}
        failed_keys = [f.key for f in err.failures]
        assert RunSpec("histogram", 300, "ct").key() in failed_keys
        # a worker finishes a spec before it can pick up the last one
        assert err.completed

        crashed = RunDirectory(rd_path)
        durable_keys = set(crashed.keys())
        assert durable_keys == set(err.completed)
        assert [s.key() for s in crashed.pending_specs()] == failed_keys

        # the fault is gone (the "host came back"); finish the sweep
        monkeypatch.undo()
        rd = RunDirectory(rd_path)
        resumed = resume(rd, jobs=1)

        # spec-complete, in manifest (= submission) order, bit-identical
        assert len(resumed) == len(specs)
        for done, fresh in zip(resumed, uninterrupted):
            assert done.counters == fresh.counters
            assert done.output == fresh.output

        # durable specs were served, only the failed ones appended
        assert rd.stats.hits == len(durable_keys)
        assert rd.stats.stores == len(failed_keys)

        # duplicate-free on disk: one record per spec
        keys = stored_keys(rd_path)
        assert len(keys) == len(set(keys)) == len(specs)

    def test_resume_defaults_come_from_manifest_snapshot(self, tmp_path):
        rd_path = str(tmp_path / "run")
        run_many(grid_specs(), jobs=2, cache=None, store=RunDirectory(rd_path))
        manifest = SweepManifest(rd_path)
        assert manifest.settings() == {"jobs": 2}
        # a plain resume completes using those settings (all stored)
        results = resume(rd_path)
        assert len(results) == 4
