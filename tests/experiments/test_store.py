"""The one store, and crash-safety through it.

Covers the durability layer end to end: the append-only store
(reopen, torn-tail truncation, corruption errors), its one failure
rule applied identically by both users (the result cache and the
verdict cache), and the acceptance bar: a sweep whose pool is killed
mid-flight and then re-run on the same cache is bit-identical to an
uninterrupted run, with the specs that completed before the crash
served from the cache instead of re-simulated.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.api import BUILTIN_PROGRAM_SPECS
from repro.analysis.engine import CheckSpec, run_check_specs
from repro.errors import EngineError, StoreError
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import RunResult
from repro.experiments.store import RECORDS_FILE, Store

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

    def test_nothing_is_created_before_the_first_put(self, tmp_path):
        path = tmp_path / "a" / "s"
        store = Store(str(path))
        assert len(store) == 0 and store.get("k") is None
        assert os.listdir(tmp_path) == []
        store.put("k", fake_result(1))
        assert os.listdir(path) == [RECORDS_FILE]

    def test_in_memory_store_counts_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        store = Store()
        store.put("k", fake_result(1))
        store.put("k", fake_result(2))
        assert store.get("k") == fake_result(1)
        assert store.get("other") is None
        stats = store.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert os.listdir(tmp_path) == []

    def test_a_file_in_place_of_the_directory_raises(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(StoreError, match="cannot open"):
            Store(str(taken))
        # a directory that turns into a file between open and append
        path = tmp_path / "s"
        store = Store(str(path))
        path.write_text("")
        with pytest.raises(StoreError, match="cannot append"):
            store.put("k", fake_result(1))
        assert "k" not in store and store.stats.stores == 0


# ---------------------------------------------------------------------------
# one failure rule for both users of the store
# ---------------------------------------------------------------------------


def _run_experiments(cache):
    specs = [RunSpec("histogram", 200, scheme) for scheme in SCHEMES]
    return run_many(specs, cache=cache)


def _run_checks(vcache):
    specs = [
        CheckSpec(kind="program", name=name,
                  program=BUILTIN_PROGRAM_SPECS[name]())
        for name in ("lookup", "swap")
    ]
    return run_check_specs(specs, vcache=vcache)


#: Each user of the store: one batch through it.
USERS = {
    "result-cache": _run_experiments,
    "verdict-cache": _run_checks,
}


class TestFailureRule:
    @pytest.mark.parametrize("user", list(USERS))
    def test_torn_tail_is_a_miss_and_a_corrupt_line_an_error(
        self, tmp_path, user
    ):
        run_batch = USERS[user]
        path = str(tmp_path / "d")
        first = run_batch(Store(path))
        records = tmp_path / "d" / RECORDS_FILE
        head, tail = records.read_bytes().splitlines(keepends=True)

        # a crash tore the last record: it is dropped (and cut from the
        # file), then re-computed and re-appended as a miss
        records.write_bytes(head + tail[: len(tail) // 2])
        store = Store(path)
        assert len(store) == 1
        assert records.read_bytes() == head
        assert run_batch(store) == first
        stats = store.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert records.read_bytes() == head + tail
        assert len(Store(path)) == 2

        # a complete line that does not decode is an error, wherever it
        # sits, and the message names the file and the line
        for lines, bad in (([b"garbage\n", head, tail], 1),
                           ([head, b"{}\n", tail], 2)):
            records.write_bytes(b"".join(lines))
            with pytest.raises(StoreError) as excinfo:
                Store(path)
            assert f"line {bad} of {records}" in str(excinfo.value)


# ---------------------------------------------------------------------------
# engine integration: served from disk, salvage at delivery
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_second_run_served_from_store_without_simulation(
        self, tmp_path, break_specs
    ):
        path = str(tmp_path / "cache")
        first = run_many(grid_specs(), cache=Store(path))
        break_specs()  # any simulation now raises
        cache = Store(path)
        second = run_many(grid_specs(), cache=cache)
        assert cache.stats.hits == 4
        assert cache.stats.stores == 0
        for a, b in zip(first, second):
            assert a.counters == b.counters

    def test_salvage_at_delivery_on_partial_failure(
        self, tmp_path, break_specs
    ):
        """Completed specs of a failing batch are on disk before the
        EngineError propagates."""
        break_specs(scheme="ct")
        for jobs in (1, 2):
            path = str(tmp_path / f"cache-{jobs}")
            with pytest.raises(EngineError):
                run_many(grid_specs(), jobs=jobs, cache=Store(path))
            survivors = Store(path)
            kept = [s.scheme for s in grid_specs() if s.key() in survivors]
            assert kept == ["insecure", "insecure"]


# ---------------------------------------------------------------------------
# the acceptance bar: kill the pool mid-sweep, re-run, bit-identical
# ---------------------------------------------------------------------------


class TestCrashAndResume:
    def test_killed_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch, break_specs
    ):
        """A worker killed mid-sweep -> EngineError whose failures are
        all crashes, with every completed spec already on disk; a
        re-run on the same cache completes exactly the remainder,
        serving the completed specs from the cache; the union is
        spec-complete, duplicate-free, and value-identical to an
        uninterrupted run."""
        specs = grid_specs()
        uninterrupted = [spec.run() for spec in specs]

        # the last spec kills the worker it lands on: the pool breaks
        # and every spec not yet delivered fails as a crash
        break_specs(crash=True, scheme="ct", size=300)
        path = str(tmp_path / "cache")
        with pytest.raises(EngineError) as excinfo:
            run_many(specs, jobs=2, cache=Store(path))
        err = excinfo.value
        assert {f.kind for f in err.failures} == {"crash"}
        failed_keys = [f.key for f in err.failures]
        assert RunSpec("histogram", 300, "ct").key() in failed_keys
        # a worker finishes a spec before it can pick up the last one
        assert err.completed
        assert set(Store(path).keys()) == set(err.completed)

        # the fault is gone (the "host came back"); re-run the sweep
        monkeypatch.undo()
        cache = Store(path)
        rerun = run_many(specs, jobs=2, cache=cache)

        # spec-complete, in submission order, bit-identical
        assert len(rerun) == len(specs)
        for done, fresh in zip(rerun, uninterrupted):
            assert done.counters == fresh.counters
            assert done.output == fresh.output

        # completed specs were served, only the crashed ones appended
        assert cache.stats.hits == len(err.completed)
        assert cache.stats.stores == len(failed_keys)

        # duplicate-free on disk: one record per spec
        keys = stored_keys(path)
        assert len(keys) == len(set(keys)) == len(specs)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_rerun_after_a_failed_batch_simulates_only_the_failures(
        self, tmp_path, monkeypatch, break_specs, jobs
    ):
        """The specs that failed are the only ones a re-run simulates:
        on the re-run the specs that completed are patched to raise,
        so serving them is the only way it can succeed."""
        specs = grid_specs()
        uninterrupted = [spec.run() for spec in specs]
        break_specs(scheme="ct")
        path = str(tmp_path / "cache")
        with pytest.raises(EngineError) as excinfo:
            run_many(specs, jobs=jobs, cache=Store(path))
        failed = {f.key for f in excinfo.value.failures}
        assert failed == {s.key() for s in specs if s.scheme == "ct"}

        monkeypatch.undo()
        break_specs(scheme="insecure")
        cache = Store(path)
        rerun = run_many(specs, jobs=jobs, cache=cache)
        assert [r.counters for r in rerun] == [
            r.counters for r in uninterrupted
        ]
        assert (cache.stats.hits, cache.stats.stores) == (2, 2)
        keys = stored_keys(path)
        assert len(keys) == len(set(keys)) == len(specs)
        assert set(keys[2:]) == failed
