"""Crash-safe result store, sweep manifests, and checkpoint/resume.

Covers the durability layer end to end: the append-only segment store
(rotation, fsync'd atomic seals, torn-tail recovery), sweep manifests
(spec round-trips that preserve the content hash), and the acceptance
bar — a sweep whose pool is killed mid-flight and then resumed from
its manifest is bit-identical to an uninterrupted run, with the
already-durable specs demonstrably served from the store instead of
re-simulated.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.machine import MachineConfig
from repro.errors import EngineError, StoreError
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import RunResult
from repro.experiments.store import (
    MANIFEST_FILE,
    RESULTS_SUBDIR,
    ResultStore,
    RunDirectory,
    SweepManifest,
    read_jsonl_records,
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


# ---------------------------------------------------------------------------
# ResultStore: append, rotate, recover
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        result = fake_result(1)
        assert store.put("k1", result)
        reopened = ResultStore(str(tmp_path / "s"))
        back = reopened.get("k1")
        # tuples stay tuples: the payload must not pass through JSON
        assert back.output == (1, (2, 3))
        assert isinstance(back.output, tuple)
        assert back == result

    def test_duplicate_put_is_suppressed(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        assert store.put("k", fake_result(1))
        assert not store.put("k", fake_result(2))
        assert len(store) == 1
        assert store.stats.appends == 1

    def test_segment_rotation_and_reopen(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(str(path), segment_records=2)
        for i in range(5):
            store.put(f"k{i}", fake_result(i))
        # 4 records sealed into 2 segments, 1 still in the active part
        names = sorted(os.listdir(path))
        assert names == [
            "segment-00000.jsonl",
            "segment-00001.jsonl",
            "segment-00002.jsonl.part",
        ]
        assert store.stats.sealed_segments == 2
        store.close()  # seals the active part
        assert sorted(os.listdir(path)) == [
            "segment-00000.jsonl",
            "segment-00001.jsonl",
            "segment-00002.jsonl",
        ]
        reopened = ResultStore(str(path), segment_records=2)
        assert len(reopened) == 5
        assert reopened.get("k3").counters == {"cycles": 3.0}

    def test_appends_continue_in_fresh_segment_after_reopen(self, tmp_path):
        path = str(tmp_path / "s")
        store = ResultStore(path, segment_records=100)
        store.put("a", fake_result(1))
        store.close()
        second = ResultStore(path, segment_records=100)
        second.put("b", fake_result(2))
        second.close()
        assert sorted(os.listdir(path)) == [
            "segment-00000.jsonl",
            "segment-00001.jsonl",
        ]
        assert len(ResultStore(path)) == 2

    def test_torn_tail_of_crashed_part_is_dropped_on_reopen(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(str(path))
        store.put("a", fake_result(1))
        store.put("b", fake_result(2))
        # simulate a crash mid-append: no close, torn trailing record
        part = path / "segment-00000.jsonl.part"
        assert part.exists()
        with open(part, "a", encoding="utf-8") as fh:
            fh.write('{"key": "c", "result": "AAAA')  # torn
        reopened = ResultStore(str(path))
        assert sorted(reopened.keys()) == ["a", "b"]
        assert reopened.stats.recovered_records == 2
        assert reopened.stats.skipped_bytes > 0
        # the part was sealed: no .part files remain, appends go on
        assert not [n for n in os.listdir(path) if n.endswith(".part")]
        reopened.put("c", fake_result(3))
        reopened.close()
        assert len(ResultStore(str(path))) == 3

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(str(path), segment_records=2)
        store.put("a", fake_result(1))
        store.put("b", fake_result(2))  # seals segment-00000
        segment = path / "segment-00000.jsonl"
        lines = segment.read_text().splitlines()
        lines[0] = lines[0][:20]  # corrupt a NON-final record
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError):
            ResultStore(str(path))

    def test_readonly_store(self, tmp_path):
        path = str(tmp_path / "s")
        with ResultStore(path) as store:
            store.put("a", fake_result(1))
        ro = ResultStore(path, readonly=True)
        assert ro.get("a") is not None
        with pytest.raises(StoreError):
            ro.put("b", fake_result(2))
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "missing"), readonly=True)

    def test_readonly_reads_live_part_without_sealing_it(self, tmp_path):
        """An offline reader must see a running sweep's active segment
        but never mutate it (the writer still owns the .part file)."""
        path = str(tmp_path / "s")
        writer = ResultStore(path)
        writer.put("a", fake_result(1))
        ro = ResultStore(path, readonly=True)
        assert ro.get("a") is not None
        assert [n for n in os.listdir(path) if n.endswith(".part")]
        writer.close()


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
        rd.close()
        manifest = SweepManifest(str(tmp_path / "run"))
        assert manifest.keys() == [s.key() for s in specs]
        assert manifest.settings()["jobs"] == 1
        assert rd.pending_specs() == []

    def test_second_run_served_from_store_without_simulation(
        self, tmp_path, break_specs
    ):
        rd_path = str(tmp_path / "run")
        with RunDirectory(rd_path) as rd:
            first = run_many(grid_specs(), cache=None, store=rd)
        break_specs()  # any simulation now raises
        with RunDirectory(rd_path) as rd:
            second = run_many(grid_specs(), cache=None, store=rd)
            assert rd.store.stats.hits == 4
            assert rd.store.stats.appends == 0
        for a, b in zip(first, second):
            assert a.counters == b.counters

    def test_cache_hits_are_backfilled_into_the_store(self, tmp_path):
        """A result served from the in-memory cache must still become
        durable, or a resume would re-simulate it."""
        cache = parallel.ResultCache()
        specs = grid_specs()
        run_many(specs, cache=cache)  # warm the cache only
        with RunDirectory(str(tmp_path / "run")) as rd:
            run_many(specs, cache=cache, store=rd)
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
            rd.close()
            survivors = RunDirectory(str(tmp_path / f"run-{jobs}"))
            assert len(survivors) == 2  # the two insecure specs
            assert len(survivors.pending_specs()) == 2

    def test_offline_serves_store_and_errors_on_miss(self, tmp_path):
        rd_path = str(tmp_path / "run")
        specs = grid_specs()
        with RunDirectory(rd_path) as rd:
            baseline = run_many(specs, cache=None, store=rd)
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
        with RunDirectory(rd_path) as rd:
            run_many(grid_specs()[:1], cache=None, store=rd)
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
        with pytest.raises(StoreError):
            resume(str(tmp_path))

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
        rd.close()
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
        crashed.close()

        # the fault is gone (the "host came back"); finish the sweep
        monkeypatch.undo()
        rd = RunDirectory(rd_path)
        resumed = resume(rd, jobs=1)
        rd.close()

        # spec-complete, in manifest (= submission) order, bit-identical
        assert len(resumed) == len(specs)
        for done, fresh in zip(resumed, uninterrupted):
            assert done.counters == fresh.counters
            assert done.output == fresh.output

        # durable specs were served, only the failed ones appended
        assert rd.store.stats.hits == len(durable_keys)
        assert rd.store.stats.appends == len(failed_keys)

        # duplicate-free on disk: one record per spec across segments
        results_dir = os.path.join(rd_path, RESULTS_SUBDIR)
        stored_keys = []
        for name in sorted(os.listdir(results_dir)):
            records, _ = read_jsonl_records(
                os.path.join(results_dir, name)
            )
            stored_keys.extend(r["key"] for r in records)
        assert len(stored_keys) == len(set(stored_keys)) == len(specs)

    def test_resume_defaults_come_from_manifest_snapshot(self, tmp_path):
        rd_path = str(tmp_path / "run")
        with RunDirectory(rd_path) as rd:
            run_many(grid_specs(), jobs=2, cache=None, store=rd)
        manifest = SweepManifest(rd_path)
        assert manifest.settings() == {"jobs": 2}
        # a plain resume completes using those settings (all stored)
        results = resume(rd_path)
        assert len(results) == 4
