"""Run workloads under schemes and collect the paper's metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.core.machine import MachineConfig
from repro.ct.context import MitigationContext
from repro.experiments.config import build_context
from repro.workloads import WORKLOADS
from repro.workloads.crypto import run_cipher


@dataclass
class RunResult:
    """One (workload, size, scheme) execution with its counters."""

    workload: str
    size: int
    scheme: str
    label: str
    output: Any
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.counters["cycles"]


def run_workload(
    workload: str,
    size: int,
    scheme: str,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    fetch_threshold: Optional[int] = None,
    ctx: Optional[MitigationContext] = None,
) -> RunResult:
    """Execute one Table-2 workload on a fresh machine.

    ``ctx`` optionally supplies a pre-built context in pristine machine
    state (the parallel engine's warm-start pool passes one restored
    from a snapshot instead of rebuilding the machine); it must match
    ``scheme``/``config``/``fetch_threshold``.
    """
    descriptor = WORKLOADS[workload]
    if ctx is None:
        ctx = build_context(
            scheme, config=config, fetch_threshold=fetch_threshold
        )
    output = descriptor.run(ctx, size, seed)
    return RunResult(
        workload=workload,
        size=size,
        scheme=scheme,
        label=descriptor.label(size),
        output=output,
        counters=ctx.machine.snapshot(),
    )


def run_crypto(
    cipher: str,
    scheme: str,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    ctx: Optional[MitigationContext] = None,
) -> RunResult:
    """Execute one Fig. 9 cipher on a fresh machine."""
    if ctx is None:
        ctx = build_context(scheme, config=config)
    output = run_cipher(cipher, ctx, seed)
    return RunResult(
        workload=f"crypto:{cipher}",
        size=0,
        scheme=scheme,
        label=cipher,
        output=output,
        counters=ctx.machine.snapshot(),
    )


def overhead(mitigated: RunResult, baseline: RunResult) -> float:
    """Execution-time overhead, the y-axis of Figs. 2, 7, 9."""
    return mitigated.cycles / baseline.cycles


def sweep(
    workload: str,
    sizes: Sequence[int],
    schemes: Sequence[str],
    seed: int = 1,
) -> Dict[int, Dict[str, RunResult]]:
    """Run a workload across sizes x schemes (fresh machine each run).

    Delegates to :func:`repro.experiments.parallel.run_many`, which
    honours the process-wide ``configure(jobs=..., cache=...)``
    defaults (serial and uncached out of the box), so the CLI can fan
    the same sweeps across workers.  If any run fails the engine
    raises :class:`repro.errors.EngineError` after caching every
    successful run of the sweep.
    """
    from repro.experiments.parallel import RunSpec, run_many

    results = iter(run_many([
        RunSpec(workload=workload, size=size, scheme=scheme, seed=seed)
        for size in sizes
        for scheme in schemes
    ]))
    return {
        size: {scheme: next(results) for scheme in schemes} for size in sizes
    }
