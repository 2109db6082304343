"""Failure paths of the experiment engine's one batch executor.

Specs are made to fail by patching :meth:`RunSpec.run` (the
``break_specs`` fixture); forked pool workers inherit the patch, so
every test runs the in-process executor (``jobs=1``) and the process
pool (``jobs=2``) through the same failure.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import EngineError
from repro.experiments import parallel
from repro.experiments.parallel import ResultCache, RunSpec, run_many

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
            cache = ResultCache(str(tmp_path / f"results-{jobs}"))
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
                hit = ResultCache(cache.path).get(spec.key())
                assert (hit is not None) == (spec.scheme == "insecure")


class TestCorruptCache:
    def test_corrupt_pkl_entry_is_recomputed_and_rewritten(
        self, tmp_path, break_specs
    ):
        """Corrupt entries are misses: re-simulated and rewritten.
        The intact entries are served, never simulated — their specs
        are patched to raise."""
        specs = grid_specs()
        corrupt = [s for s in specs if s.scheme == "ct"]
        paths = {}
        for jobs in JOBS:
            cache = ResultCache(str(tmp_path / f"results-{jobs}"))
            first = run_many(specs, cache=cache)
            for spec in corrupt:
                path = cache._file_for(spec.key())
                with open(path, "wb") as fh:
                    fh.write(b"corrupt garbage, definitely not a pickle")
            paths[jobs] = cache.path
        break_specs(scheme="insecure")
        for jobs in JOBS:
            # a fresh cache over the same directory treats the corrupt
            # entries as misses, recomputes, and *rewrites* them
            again = ResultCache(paths[jobs])
            recomputed = run_many(specs, jobs=jobs, cache=again)
            assert again.stats.misses == len(corrupt)
            assert again.stats.stores == len(corrupt)
            assert [r.counters for r in recomputed] == [
                r.counters for r in first
            ]
            for spec in corrupt:
                with open(again._file_for(spec.key()), "rb") as fh:
                    restored = pickle.load(fh)  # valid pickle again
                assert restored.counters == (
                    recomputed[specs.index(spec)].counters
                )


class TestEngineSettings:
    def test_engine_settings_roundtrip(self, break_specs):
        """Configured defaults reach both executors and restore
        cleanly from their snapshot."""
        break_specs(scheme="ct")
        prev = parallel.current_settings()
        for jobs in JOBS:
            cache = ResultCache()
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
