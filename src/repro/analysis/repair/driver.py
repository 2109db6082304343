"""The repair loop: localize → transform → re-prove, until CT-PROVED.

One round of :func:`repair_program`:

1. compute shared facts (:mod:`repro.analysis.facts`) for the current
   candidate — taint for the localizer, intervals for DS-coverage
   legality and trip-count bounds;
2. pad every secret trip count first (strict taint would otherwise
   abort the relational exploration before it produces a refutation);
3. run the relational checker on the **native** variant — the repaired
   program must be constant-time *as written*, with no executor-side
   transformation left to do;
4. on ``proved`` (sequential and, when a window is set, speculative):
   stop, optionally measure overhead against the hand-mitigated
   executor run;
5. on ``refuted``: localize the counterexample
   (:func:`repro.analysis.repair.localize.site_from_refutation`) and
   apply the **cheapest sufficient** transform —

   - a branch observation ⇒ :func:`linearize_branch` (touches one
     ``If``),
   - an address observation ⇒ :func:`ds_route_access` (touches one
     access) — but only after
     :func:`repro.analysis.intervals.prove_ds_covers` certifies the
     access cannot escape the array's DS; an uncoverable access is
     *irreparable* (the silent-leak case no linearization fixes);

6. repeat up to ``max_rounds``; a refutation that cannot be localized
   or transformed ends the loop with verdict ``"irreparable"`` and the
   residual counterexample attached.

Applied-transform provenance is kept valid across rounds by composing
each rewrite's old→new path remap
(:class:`repro.lang.transforms.TransformResult`) — every
:class:`AppliedTransform` reports both the path it was applied at and
that statement's location in the final program.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.facts import ProgramFacts, program_facts
from repro.analysis.intervals import prove_ds_covers
from repro.analysis.repair.localize import (
    KIND_ACCESS,
    KIND_BRANCH,
    KIND_TRIPCOUNT,
    LeakSite,
    site_from_observation,
    site_from_refutation,
    tripcount_sites,
)
from repro.analysis.symrel.check import SymRelResult, check_program_relational
from repro.analysis.symrel.explore import array_bases
from repro.analysis.symrel.solve import Solver
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ProtocolError, TransformError
from repro.lang import ir
from repro.lang.executor import run_program
from repro.lang.pretty import statement_at, statement_paths
from repro.lang.transforms import (
    TransformResult,
    ds_route_access,
    linearize_branch,
    pad_trip_count,
)

#: rounds before the driver gives up (each round applies one transform,
#: except round zero which pads every secret trip count)
DEFAULT_MAX_ROUNDS = 12


@dataclass(frozen=True)
class AppliedTransform:
    """Provenance of one applied rewrite."""

    #: ``"linearize" | "ds-route" | "pad-tripcount"``
    kind: str
    #: the finding rule this transform fixed (CT-REL/CT-SPEC/CT-TRIPCOUNT)
    rule: str
    #: statement path the transform was applied at (coordinates of the
    #: candidate program of its round)
    path: str
    #: the same statement's path in the **final** repaired program
    final_path: str
    description: str
    #: the leak's cause and provenance slice, from the localizer
    detail: str = ""
    slice: Tuple[str, ...] = ()


@dataclass
class RepairOverhead:
    """Cycle cost of the synthesized repair vs the hand-mitigated run.

    All three runs execute on the same scheme's context so only the
    program text (and the executor's ``mitigate`` switch) differs:

    - ``native``: the original leaky program, untransformed;
    - ``repaired``: the synthesized program, untransformed (its
      ``ds``-flagged accesses route through their DS by construction);
    - ``manual``: the original program under the executor's on-the-fly
      linearization — the hand-written-mitigation stand-in.
    """

    native_cycles: float
    repaired_cycles: float
    manual_cycles: float

    @property
    def vs_manual(self) -> float:
        """repaired/manual cycle ratio (1.0 = parity with hand work)."""
        if self.manual_cycles <= 0:
            return float("inf")
        return self.repaired_cycles / self.manual_cycles

    def as_dict(self) -> Dict[str, float]:
        return {
            "native_cycles": self.native_cycles,
            "repaired_cycles": self.repaired_cycles,
            "manual_cycles": self.manual_cycles,
            "vs_manual": round(self.vs_manual, 4),
        }


@dataclass
class RepairResult:
    """Outcome of :func:`repair_program`."""

    original: ir.Program
    repaired: ir.Program
    #: every transform, in application order, with final-program paths
    applied: List[AppliedTransform]
    #: ``"proved"`` — the repaired program is CT-PROVED natively;
    #: ``"irreparable"`` — a leak no transform fixes (see ``residual``);
    #: ``"unknown"`` — checker budget exhausted before a verdict
    verdict: str
    rounds: int
    #: the last checker result (the proof, or the residual refutation)
    residual: Optional[SymRelResult] = None
    #: why an irreparable/unknown loop stopped
    reason: str = ""
    #: DS declaration per ds-routed array: ``{name: (ds, base)}`` —
    #: exactly what ``prove_ds_covers`` validated, lint-ready as the
    #: ``ds_map`` argument
    ds_declarations: Dict[
        str, Tuple[DataflowLinearizationSet, int]
    ] = field(default_factory=dict)
    overhead: Optional[RepairOverhead] = None

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    def summary(self) -> str:
        line = (
            f"{self.original.name}: {self.verdict} after "
            f"{self.rounds} round(s), "
            f"{len(self.applied)} transform(s)"
        )
        if self.applied:
            kinds = ", ".join(t.kind for t in self.applied)
            line += f" [{kinds}]"
        if self.overhead is not None:
            line += (
                f"; {self.overhead.repaired_cycles:.0f} cycles vs "
                f"{self.overhead.manual_cycles:.0f} manual "
                f"({self.overhead.vs_manual:.2f}x)"
            )
        if self.reason:
            line += f" — {self.reason}"
        return line


# ---------------------------------------------------------------------------
# Input synthesis for the overhead measurement
# ---------------------------------------------------------------------------


def exercise_inputs(
    program: ir.Program, seed: int = 0
) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
    """Deterministic pseudo-random inputs for any IR program.

    Seeded from the program name so repair reports are stable across
    runs without any per-program table.  Values span 16 bits — wide
    enough to exercise masking/mod clamps, small enough that every
    shipped program's defensive index arithmetic keeps accesses in
    bounds.
    """
    import random

    rng = random.Random(zlib.crc32(program.name.encode()) + 7_919 * seed)
    inputs = {
        name: rng.randrange(1 << 16) for name in program.all_inputs
    }
    arrays = {
        decl.name: [rng.randrange(1 << 16) for _ in range(decl.size)]
        for decl in program.arrays
    }
    return inputs, arrays


def measure_overhead(
    original: ir.Program,
    repaired: ir.Program,
    scheme: str = "ct",
    seed: int = 0,
) -> RepairOverhead:
    """Cycle cost of three runs, each on a fresh same-scheme machine.

    Each run builds its context and sets up the arrays itself:
    rebuilding is cheaper than forking one warmed template at these
    sizes (EXPERIMENTS.md).
    """
    from repro.experiments.config import build_context

    inputs, arrays = exercise_inputs(original, seed)

    def cycles(program: ir.Program, mitigate: bool) -> float:
        ctx = build_context(scheme)
        run_program(
            program,
            ctx,
            dict(inputs),
            {k: list(v) for k, v in arrays.items()},
            mitigate=mitigate,
        )
        return float(ctx.machine.stats.cycles)

    return RepairOverhead(
        native_cycles=cycles(original, mitigate=False),
        repaired_cycles=cycles(repaired, mitigate=False),
        manual_cycles=cycles(original, mitigate=True),
    )


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def _ds_declaration(
    program: ir.Program, array: str
) -> Tuple[DataflowLinearizationSet, int]:
    """The whole-array DS the executor registers, as an explicit claim."""
    base = array_bases(program)[array]
    decl = program.array(array)
    ds = DataflowLinearizationSet.for_array(base, decl.size, name=array)
    return ds, base


def _check_native(
    program: ir.Program,
    facts: ProgramFacts,
    spec_window: int,
    solver: Solver,
) -> SymRelResult:
    return check_program_relational(
        program,
        mitigate=False,
        spec_window=spec_window,
        replay=False,
        solver=solver,
        intervals=facts.intervals,
    )


def _apply(
    program: ir.Program, site: LeakSite, facts: ProgramFacts
) -> TransformResult:
    """One transform for one site (raises ``TransformError`` if none)."""
    if site.kind == KIND_BRANCH:
        return linearize_branch(program, site.path)
    if site.kind == KIND_TRIPCOUNT:
        if site.bound is None:
            raise TransformError(
                f"trip count at {site.path} has no interval-proven "
                "bound to pad to"
            )
        return pad_trip_count(program, site.path, site.bound)
    if site.kind == KIND_ACCESS:
        stmt = statement_at(program, site.path)
        ds, base = _ds_declaration(program, stmt.array)
        proof = prove_ds_covers(
            program, stmt, ds, base, report=facts.intervals
        )
        if not proof:
            raise TransformError(
                f"access at {site.path} cannot be DS-routed: "
                f"{proof.reason} (index interval "
                f"{proof.index_interval}) — the silent-leak case "
                "data-flow linearization cannot repair"
            )
        return ds_route_access(program, site.path)
    raise TransformError(f"unknown leak kind {site.kind!r}")


def repair_program(
    program: ir.Program,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    spec_window: int = 2,
    solver: Optional[Solver] = None,
    measure: bool = True,
    scheme: str = "ct",
) -> RepairResult:
    """Automatically repair ``program`` until natively CT-PROVED.

    ``spec_window > 0`` also requires the speculative pass to prove —
    transient leaks (CT-SPEC) are localized and DS-routed like
    sequential ones.  ``measure=True`` runs the cycle comparison
    against the executor's on-the-fly mitigation on ``scheme``.

    Re-proving is incremental: one ``solver`` is shared across every
    round (pass your own to share further, e.g. with the symrel
    variants — the engine does), and hash-consing keeps the terms of
    unchanged program regions pointer-identical across rounds, so the
    solver's memo tables answer every observation-pair query a
    previous round already decided (``memo_hits``) and each round
    pays only for the queries its transform actually changed.
    """
    solver = solver or Solver()
    current = program
    applied: List[AppliedTransform] = []
    residual: Optional[SymRelResult] = None
    verdict = "unknown"
    reason = ""
    rounds = 0

    def record(result: TransformResult, site: LeakSite) -> None:
        nonlocal current
        # Forward-remap previously applied transforms so every
        # final_path is in the newest program's coordinates.
        applied[:] = [
            dataclasses.replace(
                t, final_path=result.remap.get(t.final_path, t.final_path)
            )
            for t in applied
        ]
        applied.append(
            AppliedTransform(
                kind=result.kind,
                rule=site.rule,
                path=result.target,
                final_path=result.anchor,
                description=result.description,
                detail=site.detail,
                slice=site.slice,
            )
        )
        current = result.program

    while rounds < max_rounds:
        rounds += 1
        facts = program_facts(current)

        # Trip-count pads first: strict taint aborts exploration on a
        # secret count, so these never surface as refutations.
        pads = tripcount_sites(facts)
        if pads:
            site = pads[0]
            try:
                record(_apply(current, site, facts), site)
            except TransformError as exc:
                verdict, reason = "irreparable", str(exc)
                break
            continue

        try:
            result = _check_native(current, facts, spec_window, solver)
        except ProtocolError as exc:
            verdict, reason = "irreparable", (
                f"relational check aborted: {exc}"
            )
            break
        residual = result

        seq_ok = result.verdict == "proved"
        spec_ok = result.spec_verdict in (None, "proved")
        if seq_ok and spec_ok:
            verdict = "proved"
            break
        site: Optional[LeakSite] = None
        refutation = None
        if result.verdict == "refuted":
            refutation = result.exploration.refutation
            site = site_from_refutation(current, refutation, False)
        elif result.spec_verdict == "refuted":
            refutation = result.exploration.spec_refutation
            site = site_from_refutation(current, refutation, True)
        else:
            # Inconclusive: the solver could neither prove nor refute
            # some observation (e.g. address equality through ``mod``).
            # Conservatively transform the first localizable one —
            # over-mitigating is sound; leaving it unresolved is not.
            for obs in result.exploration.unknown_obs:
                site = site_from_observation(current, obs, "CT-UNKNOWN")
                if site is not None:
                    break
            if site is None:
                verdict, reason = "unknown", (
                    "checker inconclusive: "
                    + ("; ".join(result.notes[:3]) or "budget exhausted")
                )
                break

        if site is None:
            verdict, reason = "irreparable", (
                "counterexample observation has no transformable "
                f"statement: {refutation.observation.describe()}"
            )
            break
        try:
            record(_apply(current, site, facts), site)
        except TransformError as exc:
            verdict, reason = "irreparable", str(exc)
            break
    else:
        verdict, reason = "unknown", (
            f"no fixpoint within {max_rounds} round(s)"
        )

    ds_declarations: Dict[str, Tuple[DataflowLinearizationSet, int]] = {}
    for _, stmt in statement_paths(current):
        if isinstance(stmt, (ir.Load, ir.Store)) and stmt.ds:
            if stmt.array not in ds_declarations:
                ds_declarations[stmt.array] = _ds_declaration(
                    current, stmt.array
                )

    overhead: Optional[RepairOverhead] = None
    if measure and verdict == "proved" and current is not program:
        overhead = measure_overhead(program, current, scheme=scheme)

    return RepairResult(
        original=program,
        repaired=current,
        applied=applied,
        verdict=verdict,
        rounds=rounds,
        residual=residual,
        reason=reason,
        ds_declarations=ds_declarations,
        overhead=overhead,
    )
