"""Failure paths of the experiment engine's one batch executor.

Specs are made to fail by patching :meth:`RunSpec.run` (the
``break_specs`` fixture); forked pool workers inherit the patch, so
every test runs the in-process executor (``jobs=1``) and the process
pool (``jobs=2``) through the same failure.
"""

from __future__ import annotations

import pytest

from repro.errors import EngineError, StoreError
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.store import RECORDS_FILE, Store

#: Small, fast grid: 4 unique specs, ~0.1 s each.
SIZES = (200, 300)
SCHEMES = ("insecure", "ct")
JOBS = (1, 2)


def grid_specs():
    return [
        RunSpec("histogram", size, scheme)
        for size in SIZES
        for scheme in SCHEMES
    ]


class TestRaisingSpecs:
    def test_batch_salvages_all_successes_and_lists_failures(
        self, tmp_path, break_specs
    ):
        """N specs, K raise: N-K results cached, EngineError lists
        exactly the K failed specs in submission order."""
        break_specs(scheme="ct")
        specs = grid_specs()
        for jobs in JOBS:
            cache = Store(str(tmp_path / f"results-{jobs}"))
            with pytest.raises(EngineError) as excinfo:
                run_many(specs, jobs=jobs, cache=cache)
            err = excinfo.value
            assert [(f.spec.scheme, f.spec.size) for f in err.failures] == [
                ("ct", 200), ("ct", 300)
            ]
            assert all(f.kind == "error" for f in err.failures)
            assert all("injected failure" in f.error for f in err.failures)
            # the N-K=2 successes were salvaged into the cache
            assert err.total == len(specs)
            assert len(err.completed) == 2
            assert cache.stats.stores == 2
            for spec in specs:
                hit = Store(cache.path).get(spec.key())
                assert (hit is not None) == (spec.scheme == "insecure")


class TestCorruptCache:
    def test_torn_tail_entry_is_recomputed_and_rewritten(
        self, tmp_path, break_specs
    ):
        """A torn last record is a miss: re-simulated and re-appended.
        The intact entries are served, never simulated — the insecure
        ones are patched to raise, and exactly one result is stored."""
        specs = grid_specs()
        torn = specs[-1]  # a serial run appends in submission order
        for jobs in JOBS:
            path = tmp_path / f"results-{jobs}"
            first = run_many(specs, cache=Store(str(path)))
            records = path / RECORDS_FILE
            records.write_bytes(records.read_bytes()[:-50])
        break_specs(scheme="insecure")
        for jobs in JOBS:
            path = str(tmp_path / f"results-{jobs}")
            again = Store(path)
            recomputed = run_many(specs, jobs=jobs, cache=again)
            assert (again.stats.misses, again.stats.stores) == (1, 1)
            assert [r.counters for r in recomputed] == [
                r.counters for r in first
            ]
            # the re-appended record is whole on the next open
            assert Store(path).get(torn.key()).counters == (
                recomputed[-1].counters
            )

    def test_corrupt_complete_line_raises_store_error(self, tmp_path):
        """A complete line that does not decode is never a miss."""
        path = tmp_path / "results"
        run_many(grid_specs(), cache=Store(str(path)))
        records = path / RECORDS_FILE
        lines = records.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"key": "k", "value": "bm90IGEgcGlja2xl"}\n'
        records.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="line 2 of"):
            run_many(grid_specs(), cache=Store(str(path)))


class TestEngineSettings:
    def test_engine_settings_roundtrip(self, break_specs):
        """Configured defaults reach both executors and restore
        cleanly from their snapshot."""
        break_specs(scheme="ct")
        prev = parallel.current_settings()
        for jobs in JOBS:
            cache = Store()
            try:
                parallel.configure(jobs=jobs, cache=cache)
                now = parallel.current_settings()
                assert (now.jobs, now.cache) == (jobs, cache)
                with pytest.raises(EngineError) as excinfo:
                    run_many(grid_specs())
                assert len(excinfo.value.failures) == 2
                assert cache.stats.stores == 2
            finally:
                parallel.configure(**prev._asdict())
            assert parallel.current_settings() == prev
