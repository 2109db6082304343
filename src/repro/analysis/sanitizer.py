"""Relational trace sanitizer: run twice, diff what the attacker sees.

Binsec/Rel-style self-composition, operationalized on the simulated
machine: execute the same program under two (or more) differing
secrets, each on a *fresh* machine, subscribe to every cache level's
:class:`~repro.cache.events.EventBus`, and diff the line-granularity
observable traces, the final cache states, the per-set access
profiles, and the cycle counts.  Any divergence is a non-interference
violation — the attacker can distinguish the secrets.

It is the one dynamic trace-equivalence check (Sec. 5.3): the
security tests and symrel's witness replay both run through it.  The
API:

* :func:`sanitize` — the core: a context factory plus a
  ``run(ctx, secret)`` callable;
* :func:`sanitize_workload` — one registered workload under one
  scheme;
* :func:`sanitize_program` — one :mod:`repro.lang.ir` program through
  the executor (native or mitigated).

A report is *clean* when every checked observable is identical across
all secrets.  The checks are strictly ordered by attacker power: the
event trace subsumes the set profile, which subsumes nothing — but
each is reported separately so a failure names the weakest attacker
that already wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.observer import ObservableTraceRecorder
from repro.ct.context import MitigationContext
from repro.lang import ir
from repro.lang.executor import run_program

DEFAULT_LEVELS = ("L1D", "L2", "LLC")


@dataclass(frozen=True)
class TraceDivergence:
    """One observed difference between two secrets' runs."""

    #: ``"event-trace"`` | ``"event-count"`` | ``"final-state"`` |
    #: ``"set-profile"`` | ``"cycles"``
    kind: str
    secrets: Tuple[object, object]
    detail: str
    #: index of the first differing event (event-trace only)
    index: Optional[int] = None

    def describe(self) -> str:
        a, b = self.secrets
        where = f" at event {self.index}" if self.index is not None else ""
        return f"[{self.kind}] secrets {a!r} vs {b!r}{where}: {self.detail}"


@dataclass
class SecretObservation:
    """Everything recorded for one secret's run."""

    secret: object
    events: List[Tuple]
    final_state: Tuple
    cycles: float
    #: level -> {set index -> access count}
    set_profiles: Dict[str, Dict[int, int]]
    result: object = None


@dataclass
class SanitizerReport:
    """Outcome of a relational check (truthy iff clean)."""

    secrets: Tuple[object, ...]
    levels: Tuple[str, ...]
    divergences: List[TraceDivergence] = field(default_factory=list)
    observations: List[SecretObservation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def __bool__(self) -> bool:
        return self.clean

    @property
    def cycles(self) -> Dict[object, float]:
        return {o.secret: o.cycles for o in self.observations}

    def describe(self, limit: int = 6) -> str:
        if self.clean:
            return (
                f"clean: {len(self.secrets)} secrets, "
                f"{len(self.observations[0].events)} observable events "
                f"each, traces identical on {'/'.join(self.levels)}"
            )
        lines = [
            f"NON-INTERFERENCE VIOLATION: {len(self.divergences)} "
            f"divergence(s) across {len(self.secrets)} secrets"
        ]
        for div in self.divergences[:limit]:
            lines.append(f"  - {div.describe()}")
        if len(self.divergences) > limit:
            lines.append(f"  ... {len(self.divergences) - limit} more")
        return "\n".join(lines)


def _first_event_divergence(
    a: SecretObservation, b: SecretObservation
) -> Optional[TraceDivergence]:
    secrets = (a.secret, b.secret)
    for i, (ea, eb) in enumerate(zip(a.events, b.events)):
        if ea != eb:
            return TraceDivergence(
                kind="event-trace",
                secrets=secrets,
                index=i,
                detail=f"{ea!r} != {eb!r}",
            )
    if len(a.events) != len(b.events):
        return TraceDivergence(
            kind="event-count",
            secrets=secrets,
            detail=(
                f"{len(a.events)} vs {len(b.events)} observable events"
            ),
        )
    return None


def _diff_pair(
    a: SecretObservation, b: SecretObservation
) -> List[TraceDivergence]:
    out: List[TraceDivergence] = []
    secrets = (a.secret, b.secret)
    event_div = _first_event_divergence(a, b)
    if event_div is not None:
        out.append(event_div)
    if a.final_state != b.final_state:
        out.append(
            TraceDivergence(
                kind="final-state",
                secrets=secrets,
                detail="resident lines / dirty bits / replacement "
                "order differ at exit",
            )
        )
    for level in a.set_profiles:
        pa, pb = a.set_profiles[level], b.set_profiles.get(level, {})
        if pa != pb:
            differing = sorted(
                s
                for s in set(pa) | set(pb)
                if pa.get(s, 0) != pb.get(s, 0)
            )
            out.append(
                TraceDivergence(
                    kind="set-profile",
                    secrets=secrets,
                    detail=(
                        f"{level} per-set access counts differ on "
                        f"{len(differing)} set(s) "
                        f"(first: {differing[:4]})"
                    ),
                )
            )
    if a.cycles != b.cycles:
        out.append(
            TraceDivergence(
                kind="cycles",
                secrets=secrets,
                detail=f"{a.cycles:.0f} vs {b.cycles:.0f} cycles",
            )
        )
    return out


def sanitize(
    context_factory: Callable[[], MitigationContext],
    run_fn: Callable[[MitigationContext, object], object],
    secrets: Sequence[object] = (1, 2),
    warmup: Optional[Callable[[MitigationContext], object]] = None,
) -> SanitizerReport:
    """Run ``run_fn`` once per secret on identical machines and diff.

    ``context_factory`` must build a *fresh* machine + mitigation
    context per call (so runs are independent and start from identical
    state); ``run_fn(ctx, secret)`` performs the program.  All secrets
    are compared against the first one, pairwise divergences
    accumulate in the report.  Every cache level is observed.

    ``warmup(ctx)`` optionally prepares the secret-independent prefix
    every run shares (DS registration, cache warming).  Each secret
    gets a fresh context from the factory with ``warmup`` run on it, so
    the runs start from identical states; the observers attach after
    the warm-up, which therefore stays out of the recorded events (its
    cycles and set-profile counts are in every run alike).  Building
    and warming per secret is cheaper than forking one warmed template
    at the sizes checked here (EXPERIMENTS.md).
    """
    if len(secrets) < 2:
        raise ValueError("relational checking needs at least two secrets")
    observations: List[SecretObservation] = []
    for secret in secrets:
        ctx = context_factory()
        if warmup is not None:
            warmup(ctx)
        machine = ctx.machine
        recorder = ObservableTraceRecorder()
        for name in DEFAULT_LEVELS:
            recorder.attach(machine.hierarchy.level(name))
        result = run_fn(ctx, secret)
        observations.append(
            SecretObservation(
                secret=secret,
                events=list(recorder.events),
                final_state=recorder.final_state_digest(),
                cycles=machine.stats.cycles,
                set_profiles={
                    name: dict(
                        machine.hierarchy.level(name).stats.set_accesses
                    )
                    for name in DEFAULT_LEVELS
                },
                result=result,
            )
        )
        recorder.detach()
    report = SanitizerReport(secrets=tuple(secrets), levels=DEFAULT_LEVELS)
    report.observations = observations
    base = observations[0]
    for other in observations[1:]:
        report.divergences.extend(_diff_pair(base, other))
    return report


def sanitize_workload(
    workload: str,
    size: int,
    scheme: str,
    secrets: Sequence[object] = (1, 2),
    run_fn: Optional[Callable[[MitigationContext, object], object]] = None,
) -> SanitizerReport:
    """Relationally check one registered workload under one scheme.

    The secrets are workload seeds (each seed deterministically derives
    a different secret input).  ``run_fn`` may override the default
    ``WORKLOADS[workload].run(ctx, size, seed)`` invocation, e.g. to
    pass workload-specific keyword arguments.
    """
    from repro.experiments.config import build_context
    from repro.workloads import WORKLOADS

    descriptor = WORKLOADS[workload]
    if run_fn is None:
        run_fn = lambda ctx, seed: descriptor.run(ctx, size, seed)  # noqa: E731
    return sanitize(lambda: build_context(scheme), run_fn, secrets=secrets)


def sanitize_program(
    program: ir.Program,
    inputs_for_secret: Callable[[object], Tuple[Dict, Optional[Dict]]],
    scheme: str = "bia-l1d",
    mitigate: bool = True,
    secrets: Sequence[object] = (1, 2),
) -> SanitizerReport:
    """Relationally check one IR program through the executor.

    ``inputs_for_secret(secret)`` returns the ``(inputs, arrays)`` pair
    for that secret; the *public* parts must be identical across
    secrets or the check is vacuous.  ``mitigate=False`` runs the
    insecure native execution (to demonstrate the leak the mitigation
    closes).

    When every secret shares one initial array image (the common case:
    the secret lives in an input register) the arrays are set up by
    :func:`sanitize`'s ``warmup`` on each secret's fresh context, via
    :class:`~repro.lang.executor.WarmStart`, so the secret-independent
    setup prefix drops out of the recorded observation window
    symmetrically.  With per-secret array images each secret's run
    sets up its own arrays inside the window.
    """
    from repro.experiments.config import build_context
    from repro.lang.executor import WarmStart

    assignments = {
        secret: inputs_for_secret(secret) for secret in secrets
    }
    images = [arrays or {} for _, arrays in assignments.values()]
    shared_image = all(image == images[0] for image in images[1:])

    if shared_image:
        # The warm-up sets up the arrays of the context it is given; the
        # run that follows on the same context resumes from it.
        warmed: Dict[str, WarmStart] = {}

        def warm(ctx: MitigationContext) -> None:
            warmed["t"] = WarmStart(
                program, ctx, images[0], mitigate=mitigate
            )

        def run_fn(ctx: MitigationContext, secret: object) -> object:
            inputs, _ = assignments[secret]
            return warmed["t"].resume(ctx, inputs)

        return sanitize(
            lambda: build_context(scheme), run_fn, secrets=secrets, warmup=warm
        )

    def run_fn(ctx: MitigationContext, secret: object) -> object:
        inputs, arrays = assignments[secret]
        return run_program(
            program, ctx, inputs, arrays, mitigate=mitigate
        )

    return sanitize(lambda: build_context(scheme), run_fn, secrets=secrets)
