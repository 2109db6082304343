"""Tests for the parallel experiment engine and its result cache.

The acceptance bar: parallel execution and cache reuse must be
*invisible* — every counter of every run identical to a fresh serial
simulation — and a warm cache must mean zero new simulations.
"""

from __future__ import annotations

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, run_many, run_spec
from repro.experiments.runner import run_workload, sweep
from repro.experiments.store import RECORDS_FILE, Store
from repro.errors import ConfigurationError, StoreError

WORKLOADS_UNDER_TEST = ("histogram", "binary_search")
SIZES = {"histogram": (200, 300), "binary_search": (64, 128)}
SCHEMES = ("insecure", "ct")


# ---------------------------------------------------------------------------
# spec keys
# ---------------------------------------------------------------------------


def test_key_is_stable_and_content_addressed():
    a = RunSpec("histogram", 200, "ct", 1)
    b = RunSpec("histogram", 200, "ct", 1)
    assert a.key() == b.key()
    # any field change changes the key
    assert a.key() != RunSpec("histogram", 201, "ct", 1).key()
    assert a.key() != RunSpec("histogram", 200, "insecure", 1).key()
    assert a.key() != RunSpec("histogram", 200, "ct", 2).key()
    assert a.key() != RunSpec("histogram", 200, "ct", 1, kind="crypto").key()
    assert (
        a.key()
        != RunSpec("histogram", 200, "ct", 1, fetch_threshold=4).key()
    )


def test_key_includes_version(monkeypatch):
    spec = RunSpec("histogram", 200, "ct", 1)
    before = spec.key()
    import repro

    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert spec.key() != before


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec("histogram", 200, kind="nope").run()


def test_run_spec_trampoline_matches_runner():
    direct = run_workload("histogram", 200, "ct", seed=1)
    via_spec = run_spec(RunSpec("histogram", 200, "ct", 1))
    assert direct.counters == via_spec.counters


# ---------------------------------------------------------------------------
# parallel == serial, counter for counter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS_UNDER_TEST)
def test_parallel_sweep_counter_identical_to_serial(workload):
    sizes = SIZES[workload]
    serial = sweep(workload, sizes, SCHEMES)
    specs = [
        RunSpec(workload, size, scheme)
        for size in sizes
        for scheme in SCHEMES
    ]
    fanned = iter(run_many(specs, jobs=2))
    for size in sizes:
        for scheme in SCHEMES:
            s, p = serial[size][scheme], next(fanned)
            assert s.counters == p.counters, (workload, size, scheme)
            assert s.output == p.output
            assert (s.workload, s.size, s.scheme, s.label) == (
                p.workload,
                p.size,
                p.scheme,
                p.label,
            )


def test_run_many_preserves_order_and_dedups():
    specs = [
        RunSpec("histogram", 200, "insecure"),
        RunSpec("histogram", 200, "ct"),
        RunSpec("histogram", 200, "insecure"),  # duplicate of [0]
    ]
    cache = Store()
    results = run_many(specs, cache=cache)
    assert [r.scheme for r in results] == ["insecure", "ct", "insecure"]
    # the duplicate spec was simulated once and returned twice
    assert results[0] is results[2]
    assert cache.stats.stores == 2


def test_heavily_duplicated_sweep_dedups_in_order():
    """Regression for the O(n^2) `key in pending_keys` list scan: the
    engine tracks pending membership in a set, but must still return
    results in submission order and simulate each unique spec once."""
    unique = [
        RunSpec("histogram", size, scheme)
        for size in (200, 300)
        for scheme in ("insecure", "ct")
    ]
    # 50 interleaved repetitions of the 4 unique specs
    specs = [unique[i % len(unique)] for i in range(200)]
    cache = Store()
    results = run_many(specs, cache=cache)
    assert len(results) == 200
    assert cache.stats.stores == len(unique)  # each simulated exactly once
    for i, result in enumerate(results):
        expected = unique[i % len(unique)]
        assert (result.size, result.scheme) == (
            expected.size,
            expected.scheme,
        )
        # duplicates share the one computed object
        assert result is results[i % len(unique)]


# ---------------------------------------------------------------------------
# cache: warm runs simulate nothing
# ---------------------------------------------------------------------------


def _grid_specs():
    return [
        RunSpec(workload, size, scheme)
        for workload in WORKLOADS_UNDER_TEST
        for size in SIZES[workload]
        for scheme in SCHEMES
    ]


def test_warm_disk_cache_means_zero_simulations(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "results")
    specs = _grid_specs()

    cold = Store(cache_dir)
    fresh = run_many(specs, cache=cold)
    assert cold.stats.misses == len(specs)
    assert cold.stats.stores == len(specs)

    # fresh cache object over the same directory == a new process
    warm = Store(cache_dir)
    # prove no simulation happens: running a workload would call
    # run_spec; make it explode.
    monkeypatch.setattr(
        parallel,
        "run_spec",
        lambda spec: (_ for _ in ()).throw(AssertionError("simulated!")),
    )
    monkeypatch.setattr(
        RunSpec,
        "run",
        lambda self: (_ for _ in ()).throw(AssertionError("simulated!")),
    )
    cached = run_many(specs, cache=warm)
    assert warm.stats.hits == len(specs)
    assert warm.stats.misses == 0
    assert warm.stats.stores == 0
    for a, b in zip(fresh, cached):
        assert a.counters == b.counters


def test_cached_results_identical_to_serial_fresh(tmp_path):
    """Parallel + cached == serial fresh, across every snapshot key."""
    cache = Store(str(tmp_path / "results"))
    specs = _grid_specs()
    run_many(specs, cache=cache, jobs=4)  # populate (parallel)
    warmed = run_many(specs, cache=cache)  # reuse
    fresh = [spec.run() for spec in specs]  # serial, no engine
    for a, b in zip(warmed, fresh):
        assert set(a.counters) == set(b.counters)
        for key in b.counters:
            assert a.counters[key] == b.counters[key], (a.workload, key)


def test_torn_cache_tail_is_a_miss(tmp_path):
    cache = Store(str(tmp_path / "results"))
    spec = RunSpec("histogram", 200, "insecure")
    run_many([spec], cache=cache)
    records = tmp_path / "results" / RECORDS_FILE
    records.write_bytes(records.read_bytes()[:-40])  # a crash mid-append
    again = Store(cache.path)
    results = run_many([spec], cache=again)
    assert again.stats.misses == 1  # the torn record did not poison the run
    assert results[0].counters["cycles"] > 0
    assert len(Store(cache.path)) == 1  # re-appended on its own line


def test_corrupt_cache_line_raises(tmp_path):
    cache = Store(str(tmp_path / "results"))
    run_many([RunSpec("histogram", 200, "insecure")], cache=cache)
    records = tmp_path / "results" / RECORDS_FILE
    records.write_bytes(b"not a record\n" + records.read_bytes())
    with pytest.raises(StoreError, match="line 1 of"):
        Store(cache.path)


# ---------------------------------------------------------------------------
# configure() defaults
# ---------------------------------------------------------------------------


def test_configure_defaults_are_honoured():
    prev = parallel.current_settings()
    cache = Store()
    try:
        parallel.configure(jobs=1, cache=cache)
        sweep("histogram", [200], ["insecure"])
        assert cache.stats.stores == 1
        sweep("histogram", [200], ["insecure"])  # warm
        assert cache.stats.hits >= 1
        assert cache.stats.stores == 1
    finally:
        parallel.configure(jobs=prev[0], cache=prev[1])


def test_configure_rejects_bad_jobs():
    with pytest.raises(ConfigurationError):
        parallel.configure(jobs=0)
    with pytest.raises(ConfigurationError):
        run_many([RunSpec("histogram", 200)], jobs=-1)


# ---------------------------------------------------------------------------
# cache keying vs the warm-start pool prefix
# ---------------------------------------------------------------------------


class TestWarmPoolKeying:
    """`RunSpec.key()` vs the `MachineTemplatePool` prefix.

    The pool reuses one machine per `(scheme, config, fetch_threshold)`
    prefix; the cache keys on the *full* spec.  Two hazards follow.
    Every config field — `replacement_seed` included — is part of the
    prefix because the whole `MachineConfig` is a prefix component, so
    a changed field must build a new pooled machine AND a new cache
    key; and fields *outside* the prefix (seed, size) legitimately
    share a pooled machine but must still get distinct cache keys.  A
    stale pooled template or cached result in either case would
    silently corrupt a sweep.
    """

    def test_replacement_seed_changes_key_and_pool_entry(self):
        from repro.core.machine import MachineConfig
        from repro.experiments.parallel import use_warm_pool

        spec_a = RunSpec(
            "histogram", 200, "insecure",
            config=MachineConfig(replacement_seed=0),
        )
        spec_b = RunSpec(
            "histogram", 200, "insecure",
            config=MachineConfig(replacement_seed=123),
        )
        # distinct cache keys: a cached result can never cross over
        assert spec_a.key() != spec_b.key()
        try:
            use_warm_pool(False)
            fresh = [spec_a.run(), spec_b.run()]
            pool = use_warm_pool(True)
            pooled = [spec_a.run(), spec_b.run()]
            # distinct prefixes: two builds, no template sharing
            assert pool.stats.builds == 2
            assert pool.stats.reuses == 0
            # and re-running restores each spec's own template
            again = [spec_a.run(), spec_b.run()]
            assert pool.stats.reuses == 2
        finally:
            use_warm_pool(True)
        for f, p, a in zip(fresh, pooled, again):
            assert f.counters == p.counters == a.counters
            assert f.output == p.output == a.output

    def test_shared_prefix_reuses_machine_but_not_results(self, tmp_path):
        """Seeds share a pooled machine (same prefix) yet must never
        share a cached result (different full key)."""
        from repro.experiments.parallel import use_warm_pool

        spec_s1 = RunSpec("histogram", 200, "insecure", seed=1)
        spec_s2 = RunSpec("histogram", 200, "insecure", seed=2)
        assert spec_s1.key() != spec_s2.key()
        cache = Store(str(tmp_path / "c"))
        try:
            pool = use_warm_pool(True)
            results = run_many([spec_s1, spec_s2], cache=cache)
            assert pool.stats.builds == 1  # one template...
            assert cache.stats.stores == 2  # ...two distinct results
        finally:
            use_warm_pool(True)
        assert results[0].counters != results[1].counters or (
            results[0].output != results[1].output
        )
