"""Experiment engine: content-addressed specs and one batch executor.

Every figure/table in the paper reduces to a bag of independent
``(workload, size, scheme, seed)`` simulations — each builds a fresh
machine, so there is no shared state and the bag is embarrassingly
parallel.  This module provides the engine the experiment layer runs
on:

* :class:`RunSpec` — a hashable description of one simulation.  Its
  :meth:`~RunSpec.key` is a content hash over the spec's fields *and*
  :data:`repro.__version__`, so cached results are invalidated
  automatically when the simulator version bumps.
* :func:`execute` — the one batch executor, shared with the
  verification engine (:mod:`repro.analysis.engine`).
* :func:`run_many` — execute a sequence of specs, deduplicating
  identical specs, consulting the result cache (a
  :class:`~repro.experiments.store.Store` map from key to result), and
  handing the rest to :func:`execute`.  Figures 2/7/8 all share the
  same ``insecure`` baselines; with a cache they are simulated once.
  :func:`repro.experiments.runner.sweep` builds a sizes x schemes grid
  of specs on top of it.
* :class:`MachineTemplatePool` — per-process warm-start pool: sweep
  points sharing a config prefix (the ``(scheme, config,
  fetch_threshold)`` triple) reuse one pooled machine restored from a
  pristine :meth:`~repro.core.machine.Machine.save_state` snapshot
  instead of rebuilding the machine per run; :func:`use_warm_pool`
  switches the behaviour off.

Determinism: a spec fully determines its machine (pristine state per
run, seeded RNGs, seeded replacement policies), so a worker process
produces bit-identical counters to an in-process run, and a pooled
run bit-identical counters to a fresh-machine run.  The test suite
asserts ``run_many(jobs=2)`` is counter-identical to the serial
``sweep`` and pooled runs counter-identical to unpooled.

Failure rule
------------

Simulations are deterministic and sub-second, so the executor neither
retries nor times out.  A spec that raises is recorded as a
:class:`~repro.errors.SpecFailure` of kind ``"error"`` while the rest
of the batch runs on; a worker death breaks the pool, and every spec
not yet delivered fails as ``"crash"``.  Each completed result reaches
the cache the moment it arrives (on disk, appended and fsynced), so
when the drained batch raises :class:`~repro.errors.EngineError` the
successes are already salvaged, and a re-run on the same cache — after
a failed batch or a crash of the whole process — simulates only what
is missing.

Process-global defaults (used by the CLI's ``--jobs`` / ``--no-cache``
flags) are set with :func:`configure`; explicit arguments always win.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import repro
from repro.core.machine import MachineConfig
from repro.ct.context import MitigationContext
from repro.errors import ConfigurationError, EngineError, SpecFailure
from repro.experiments.config import build_context
from repro.experiments.runner import RunResult, run_crypto, run_workload

#: Default on-disk cache directory (relative to the current working
#: directory) used by the CLI when caching is enabled.
DEFAULT_CACHE_DIR = ".repro_results"

# -- specs ---------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: workload (or cipher) x scheme x seed.

    ``kind`` selects the runner: ``"workload"`` dispatches to
    :func:`run_workload` (``size`` required), ``"crypto"`` to
    :func:`run_crypto` (``workload`` names the cipher, ``size``
    ignored).
    """

    workload: str
    size: int = 0
    scheme: str = "insecure"
    seed: int = 1
    kind: str = "workload"
    fetch_threshold: Optional[int] = None
    config: Optional[MachineConfig] = None

    def key(self) -> str:
        """Content hash of this spec + the simulator version.

        Two specs with equal keys produce identical results; bumping
        :data:`repro.__version__` invalidates every cached result.
        """
        payload = {
            "workload": self.workload,
            "size": self.size,
            "scheme": self.scheme,
            "seed": self.seed,
            "kind": self.kind,
            "fetch_threshold": self.fetch_threshold,
            "config": (
                None if self.config is None else dataclasses.asdict(self.config)
            ),
            "version": repro.__version__,
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def run(self) -> RunResult:
        """Execute this spec in this process.

        When the process-wide warm-start pool is enabled (the default,
        see :func:`use_warm_pool`), specs sharing a config prefix reuse
        one pooled machine restored from its pristine snapshot instead
        of rebuilding it; results are identical either way.
        """
        pool = _warm_pool
        if self.kind == "workload":
            ctx = (
                pool.context_for(self.scheme, self.config, self.fetch_threshold)
                if pool is not None
                else None
            )
            return run_workload(
                self.workload,
                self.size,
                self.scheme,
                seed=self.seed,
                config=self.config,
                fetch_threshold=self.fetch_threshold,
                ctx=ctx,
            )
        if self.kind == "crypto":
            ctx = (
                pool.context_for(self.scheme, self.config)
                if pool is not None
                else None
            )
            return run_crypto(
                self.workload,
                self.scheme,
                seed=self.seed,
                config=self.config,
                ctx=ctx,
            )
        raise ConfigurationError(
            f"unknown RunSpec kind {self.kind!r}; choices: workload, crypto"
        )


def run_spec(spec: RunSpec) -> RunResult:
    """Top-level trampoline so specs can cross a process boundary."""
    return spec.run()


# -- warm-start machine pool ---------------------------------------------------


@dataclass(slots=True)
class WarmPoolStats:
    """Pool activity counters (tests assert reuse actually happens)."""

    builds: int = 0
    reuses: int = 0


class MachineTemplatePool:
    """Per-process reuse of machines across specs sharing a config prefix.

    Every spec whose ``(scheme, config, fetch_threshold)`` triple — the
    *config prefix* that fully determines machine construction — matches
    an earlier spec starts from the same pristine machine state.  The
    pool builds that machine once, captures a snapshot with
    :meth:`repro.core.machine.Machine.save_state`, and for every later
    spec restores the snapshot onto the pooled machine instead of
    re-running construction (cache arrays, BIA tables, DRAM banks,
    hierarchy wiring).  Restoration is observationally complete — the
    equivalence tests assert pooled runs are counter-identical to
    fresh-machine runs — so the engine's determinism contract holds.

    The pool is strictly per-process: each worker of the parallel
    engine grows its own, which is exactly the domain where reusing a
    machine object is safe (runs within one process are serial).  A
    checked-out context is valid until the next ``context_for`` call
    with the same key; callers attaching external observers to the
    pooled machine must detach them before returning control.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, tuple] = {}
        self.stats = WarmPoolStats()

    def context_for(
        self,
        scheme: str,
        config: Optional[MachineConfig] = None,
        fetch_threshold: Optional[int] = None,
    ) -> MitigationContext:
        """A context for this prefix, on a machine in pristine state."""
        key = (scheme, config, fetch_threshold)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.builds += 1
            ctx = build_context(
                scheme, config=config, fetch_threshold=fetch_threshold
            )
            self._entries[key] = (ctx.machine, ctx.machine.save_state())
            return ctx
        self.stats.reuses += 1
        machine, pristine = entry
        machine.restore_state(pristine)
        return build_context(
            scheme,
            config=config,
            fetch_threshold=fetch_threshold,
            machine=machine,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


#: The process-wide pool :meth:`RunSpec.run` draws from.  ``None``
#: disables warm starts (every spec builds a fresh machine).
_warm_pool: Optional[MachineTemplatePool] = MachineTemplatePool()


def warm_pool() -> Optional[MachineTemplatePool]:
    """The active warm-start pool (``None`` when disabled)."""
    return _warm_pool


def use_warm_pool(enabled: bool = True) -> Optional[MachineTemplatePool]:
    """Enable (with a fresh pool) or disable engine warm starts."""
    global _warm_pool
    _warm_pool = MachineTemplatePool() if enabled else None
    return _warm_pool


# -- process-global defaults ---------------------------------------------------

_UNSET = object()


class EngineSettings(NamedTuple):
    """Snapshot of the process-wide engine defaults.

    Restore with ``configure(**settings._asdict())``.
    """

    jobs: int = 1
    #: result cache (a store.Store) or None
    cache: Optional[object] = None


_settings = EngineSettings()


def _check_jobs(jobs) -> int:
    if jobs is None or int(jobs) < 1:
        raise ConfigurationError(f"jobs must be a positive int: {jobs!r}")
    return int(jobs)


def configure(**changes) -> None:
    """Set process-wide defaults for :func:`run_many`.

    Keywords are the fields of :class:`EngineSettings`.  The CLI calls
    this once from its flags; library callers normally pass explicit
    arguments instead.
    """
    global _settings
    if "jobs" in changes:
        changes["jobs"] = _check_jobs(changes["jobs"])
    _settings = _settings._replace(**changes)


def current_settings() -> EngineSettings:
    """The active engine defaults — introspection and save/restore."""
    return _settings


# -- execution ----------------------------------------------------------------

_DIED = "worker process died"


def execute(
    pending: Sequence[Tuple[str, object]],
    fn: Callable,
    jobs: int,
    results: Dict[str, object],
    deliver: Optional[Callable[[str, object], None]] = None,
) -> None:
    """Run ``fn(spec)`` for every ``(key, spec)`` in ``pending``.

    The one batch executor of both engines.  Specs run in this process
    when ``jobs == 1`` or only one is pending; otherwise the batch gets
    one process pool of ``jobs`` workers.  Each result lands in
    ``results[key]`` and goes to ``deliver(key, result)`` the moment it
    completes, so it is salvaged even if a later spec fails.

    A spec that raises fails with kind ``"error"`` and the others still
    run.  A dead worker breaks the pool: every spec not yet delivered
    fails with kind ``"crash"``, with no retry and no fallback.  Once
    the batch drains, any failure raises :class:`EngineError` listing
    the failures in submission order, with ``results`` as ``completed``.
    ``fn`` must be a picklable top-level function.
    """
    failures: Dict[str, SpecFailure] = {}

    def settle(key, spec, outcome) -> None:
        try:
            result = outcome()
        except BrokenProcessPool:
            failures[key] = SpecFailure(spec, key, "crash", _DIED)
        except Exception as exc:  # noqa: BLE001 - engine boundary
            failures[key] = SpecFailure(spec, key, "error",
                                        f"{type(exc).__name__}: {exc}")
        else:
            results[key] = result
            if deliver is not None:
                deliver(key, result)

    if jobs == 1 or len(pending) == 1:
        for key, spec in pending:
            settle(key, spec, lambda: fn(spec))
    else:
        # Workers freeze the heap they inherit from the fork: otherwise
        # every collection in a worker traverses it, costing ~25% extra
        # CPU per task over the identical serial run.
        with ProcessPoolExecutor(jobs, initializer=gc.freeze) as pool:
            futures = {}
            for key, spec in pending:
                try:
                    futures[pool.submit(fn, spec)] = key, spec
                except BrokenProcessPool:  # a worker died mid-submission
                    failures[key] = SpecFailure(spec, key, "crash", _DIED)
            for future in as_completed(futures):
                settle(*futures[future], future.result)
    if failures:
        raise EngineError(
            [failures[key] for key, _ in pending if key in failures],
            completed=results,
        )


def run_many(
    specs: Sequence[RunSpec],
    jobs=_UNSET,
    cache=_UNSET,
) -> List[RunResult]:
    """Execute ``specs``, returning results in the same order.

    Identical specs (equal content keys) are simulated once; results
    in ``cache`` (a :class:`~repro.experiments.store.Store`) are reused
    without simulation, and every simulated result is put there the
    moment it completes.  With ``jobs > 1`` the remaining unique specs
    are fanned across a process pool; see :func:`execute` for the
    failure rule.
    """
    jobs = _check_jobs(_settings.jobs if jobs is _UNSET else jobs)
    cache = _settings.cache if cache is _UNSET else cache

    keys = [spec.key() for spec in specs]
    unique = dict(zip(keys, specs))
    results: Dict[str, RunResult] = {}
    if cache is not None:
        for key in unique:
            hit = cache.get(key)
            if hit is not None:
                results[key] = hit
    pending = [(k, spec) for k, spec in unique.items() if k not in results]
    deliver = None if cache is None else cache.put
    execute(pending, run_spec, jobs, results, deliver)
    return [results[key] for key in keys]
