"""Replay symbolic counterexamples through the dynamic sanitizer.

A solver model is a static artifact; replay turns it into an
end-to-end confirmed leak.  The two concrete input assignments the
model describes (side ``A`` and side ``B``: identical public values,
differing secrets) are run through the real executor + cache simulator
under the sanitizer's relational harness, and the resulting trace diff
— first diverging memory event, event-count mismatch, or cycle-count
gap — is attached to the finding.  A refutation that survives this
round trip cannot be an artifact of the symbolic model (imprecise
bounds, an unsound simplification, a wrong base address): the machine
itself observed the two secrets apart.

Speculative (``CT-SPEC``) counterexamples are *not* replayable: the
executor is architectural and never walks a mispredicted path, which
is exactly why the speculative leak is invisible to the dynamic
toolchain and needs the symbolic mode in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizer import SanitizerReport, sanitize_program
from repro.errors import ReproError
from repro.lang import ir

#: ``(inputs, arrays)`` for one side of the relational pair.
SideAssignment = Tuple[Dict[str, int], Dict[str, List[int]]]


@dataclass
class ReplayResult:
    """Outcome of replaying one counterexample pair."""

    program: str
    confirmed: bool
    #: first few divergence descriptions (empty when not confirmed)
    divergences: Tuple[str, ...]
    #: per-side cycle counts, when the runs completed
    cycles: Dict[str, float]
    #: non-None when the replay itself failed (setup error etc.)
    error: Optional[str] = None

    def describe(self) -> str:
        if self.error is not None:
            return f"replay failed: {self.error}"
        if not self.confirmed:
            return "replay did NOT confirm the model (no divergence)"
        head = self.divergences[0] if self.divergences else "divergence"
        return (
            f"replay confirmed: {len(self.divergences)} divergence(s), "
            f"first {head}"
        )


def replay_counterexample(
    program: ir.Program,
    side_a: SideAssignment,
    side_b: SideAssignment,
    mitigate: bool = False,
) -> ReplayResult:
    """Run both sides of a model through the dynamic sanitizer.

    ``mitigate=False`` (the default) replays a native-variant
    refutation on the insecure machine — the configuration the
    symbolic native mode models.  ``mitigate=True`` replays against
    the full BIA-mitigated pipeline (useful to demonstrate that the
    very pair the solver found is *closed* by the mitigation).  The
    result keeps the first four divergences.
    """
    scheme = "bia-l1d" if mitigate else "insecure"
    sides = {"A": side_a, "B": side_b}

    def inputs_for_secret(secret: object) -> Tuple[Dict, Optional[Dict]]:
        inputs, arrays = sides[secret]
        return dict(inputs), {k: list(v) for k, v in arrays.items()}

    try:
        report: SanitizerReport = sanitize_program(
            program,
            inputs_for_secret,
            scheme=scheme,
            mitigate=mitigate,
            secrets=("A", "B"),
        )
    except ReproError as exc:
        return ReplayResult(
            program=program.name,
            confirmed=False,
            divergences=(),
            cycles={},
            error=f"{type(exc).__name__}: {exc}",
        )
    return ReplayResult(
        program=program.name,
        confirmed=not report.clean,
        divergences=tuple(
            div.describe() for div in report.divergences[:4]
        ),
        cycles={str(k): v for k, v in report.cycles.items()},
    )
