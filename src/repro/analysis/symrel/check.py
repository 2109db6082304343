"""Verdicts, concrete relational models, and ctlint-style findings.

This is the user-facing layer of the relational checker.  For one IR
program it runs the explorer over the *native* (unmitigated) and
*mitigated* (DS/CFL-linearized) variants, turns solver models into
concrete input assignments for both sides of the pair, replays
sequential counterexamples through the dynamic sanitizer, and renders
everything as :class:`repro.analysis.ctlint.Finding` objects:

==============  =========  ==========================================
``CT-REL``      error      a concrete secret pair distinguishes the
                           two executions (message carries the pair
                           and the sanitizer replay outcome)
``CT-SPEC``     warning    sequentially proved, but a transient
                           (mispredicted-branch) execution leaks
``CT-PROVED``   info       every observation pair proved equal over
                           all inputs
``CT-UNKNOWN``  warning    exploration or solver budget exhausted —
                           neither a proof nor a counterexample
==============  =========  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.ctlint import Finding
from repro.analysis.symrel.explore import (
    ExplorationResult,
    Refutation,
    RelationalExplorer,
)
from repro.analysis.symrel.expr import VarKey
from repro.analysis.symrel.replay import ReplayResult, replay_counterexample
from repro.analysis.symrel.solve import Solver
from repro.errors import ProtocolError
from repro.lang import ir


@dataclass
class RelationalModel:
    """A solver model lifted to concrete inputs for both sides.

    Public inputs and public array contents are shared (low-equivalent
    by construction); secrets carry one value per side.  Variables the
    solver left unassigned default to 0, matching its evaluation
    semantics — the model stays a genuine witness.
    """

    program: str
    raw: Dict[VarKey, int]
    inputs: Dict[str, int]
    secrets_a: Dict[str, int]
    secrets_b: Dict[str, int]
    arrays: Dict[str, List[int]]
    secret_arrays_a: Dict[str, List[int]]
    secret_arrays_b: Dict[str, List[int]]

    @classmethod
    def from_solver_model(
        cls, program: ir.Program, model: Dict[VarKey, int]
    ) -> "RelationalModel":
        def get(name: str, index: Optional[int], side: Optional[str]) -> int:
            return model.get((name, index, side), 0) & 0xFFFFFFFF

        inputs = {n: get(n, None, None) for n in program.inputs}
        secrets_a = {n: get(n, None, "A") for n in program.secret_inputs}
        secrets_b = {n: get(n, None, "B") for n in program.secret_inputs}
        arrays: Dict[str, List[int]] = {}
        sec_a: Dict[str, List[int]] = {}
        sec_b: Dict[str, List[int]] = {}
        for decl in program.arrays:
            if decl.secret:
                sec_a[decl.name] = [
                    get(decl.name, i, "A") for i in range(decl.size)
                ]
                sec_b[decl.name] = [
                    get(decl.name, i, "B") for i in range(decl.size)
                ]
            else:
                arrays[decl.name] = [
                    get(decl.name, i, None) for i in range(decl.size)
                ]
        return cls(
            program=program.name,
            raw=dict(model),
            inputs=inputs,
            secrets_a=secrets_a,
            secrets_b=secrets_b,
            arrays=arrays,
            secret_arrays_a=sec_a,
            secret_arrays_b=sec_b,
        )

    def side(self, side: str) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
        """``(inputs, arrays)`` for one side, executor-ready."""
        secrets = self.secrets_a if side == "A" else self.secrets_b
        secret_arrays = (
            self.secret_arrays_a if side == "A" else self.secret_arrays_b
        )
        inputs = dict(self.inputs)
        inputs.update(secrets)
        arrays = {k: list(v) for k, v in self.arrays.items()}
        arrays.update({k: list(v) for k, v in secret_arrays.items()})
        return inputs, arrays

    def describe(self, limit: int = 4) -> str:
        """The differing secrets, compactly: ``key: 0 vs 16``."""
        diffs: List[str] = []
        for name in sorted(self.secrets_a):
            a, b = self.secrets_a[name], self.secrets_b[name]
            if a != b:
                diffs.append(f"{name}: {a} vs {b}")
        for arr in sorted(self.secret_arrays_a):
            va, vb = self.secret_arrays_a[arr], self.secret_arrays_b[arr]
            for i, (a, b) in enumerate(zip(va, vb)):
                if a != b:
                    diffs.append(f"{arr}[{i}]: {a} vs {b}")
        if not diffs:
            return "secrets identical (leak via public state?)"
        head = diffs[:limit]
        more = f" (+{len(diffs) - limit} more)" if len(diffs) > limit else ""
        return "; ".join(head) + more


@dataclass
class SymRelResult:
    """Outcome of one relational check of one program variant."""

    program: str
    mitigate: bool
    spec_window: int
    #: ``"proved"`` | ``"refuted"`` | ``"unknown"`` (sequential)
    verdict: str
    #: same, for the speculative pass; ``None`` when ``spec_window``
    #: is 0 or the sequential verdict already refutes
    spec_verdict: Optional[str] = None
    model: Optional[RelationalModel] = None
    spec_model: Optional[RelationalModel] = None
    #: description of the leaking observation (refuted only)
    observation: Optional[str] = None
    spec_observation: Optional[str] = None
    replay: Optional[ReplayResult] = None
    exploration: Optional[ExplorationResult] = None
    solver_stats: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def variant(self) -> str:
        return "mitigated" if self.mitigate else "native"

    def summary(self) -> str:
        line = f"{self.program} [{self.variant}]: {self.verdict}"
        if self.spec_verdict is not None:
            line += f" (speculative: {self.spec_verdict})"
        if self.model is not None:
            line += f" — {self.model.describe()}"
        return line


def check_program_relational(
    program: ir.Program,
    mitigate: bool = False,
    spec_window: int = 0,
    replay: bool = True,
    solver: Optional[Solver] = None,
    taint=None,
    intervals=None,
) -> SymRelResult:
    """Relationally check one variant of ``program``.

    ``replay=True`` re-runs any sequential counterexample through the
    dynamic sanitizer (on the configuration matching ``mitigate``) and
    attaches the confirmed trace diff.  ``taint``/``intervals`` accept
    precomputed per-program facts so batch callers (ctcheck, the
    repair driver) walk each program once instead of per check.
    """
    solver = solver or Solver()
    explorer = RelationalExplorer(
        program,
        mitigate=mitigate,
        solver=solver,
        spec_window=spec_window,
        taint=taint,
        intervals=intervals,
    )
    exploration = explorer.run()

    if exploration.refutation is not None:
        verdict = "refuted"
    elif exploration.proved:
        verdict = "proved"
    else:
        verdict = "unknown"

    spec_verdict: Optional[str] = None
    if spec_window > 0 and verdict != "refuted":
        if exploration.spec_refutation is not None:
            spec_verdict = "refuted"
        elif exploration.spec_proved:
            spec_verdict = "proved"
        else:
            spec_verdict = "unknown"

    result = SymRelResult(
        program=program.name,
        mitigate=mitigate,
        spec_window=spec_window,
        verdict=verdict,
        spec_verdict=spec_verdict,
        exploration=exploration,
        solver_stats=solver.stats.as_dict(),
        notes=list(exploration.truncated)
        + [obs.describe() for obs in exploration.unknown_obs],
    )
    if exploration.refutation is not None:
        result.model = RelationalModel.from_solver_model(
            program, exploration.refutation.outcome.model or {}
        )
        result.observation = exploration.refutation.observation.describe()
        if replay:
            result.replay = replay_counterexample(
                program,
                result.model.side("A"),
                result.model.side("B"),
                mitigate=mitigate,
            )
    if exploration.spec_refutation is not None and verdict != "refuted":
        result.spec_model = RelationalModel.from_solver_model(
            program, exploration.spec_refutation.outcome.model or {}
        )
        result.spec_observation = (
            exploration.spec_refutation.observation.describe()
        )
    return result


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


def _refutation_finding(result: SymRelResult) -> Finding:
    refutation: Refutation = result.exploration.refutation
    message = (
        f"{result.variant} execution leaks: {result.observation} "
        f"distinguishes {result.model.describe()}"
    )
    if result.replay is not None:
        message += f"; {result.replay.describe()}"
    return Finding(
        rule="CT-REL",
        severity="error",
        program=result.program,
        path=refutation.observation.stmt_path,
        message=message,
    )


def _stats_suffix(result: SymRelResult) -> str:
    exploration = result.exploration
    return (
        f"({exploration.paths} path(s), "
        f"{exploration.observations_checked} observation pair(s))"
    )


def symrel_findings(
    program: ir.Program,
    spec_window: int = 0,
    replay: bool = True,
    solver: Optional[Solver] = None,
    taint=None,
    intervals=None,
) -> List[Finding]:
    """Check both variants of ``program``; render findings.

    The native variant documents what the unprotected program leaks
    (with a replayed concrete pair); the mitigated variant is the
    claim the hardware mitigation actually makes — a ``CT-PROVED``
    there is the static counterpart of the sanitizer's clean bill.
    """
    findings: List[Finding] = []
    for mitigate in (False, True):
        try:
            result = check_program_relational(
                program,
                mitigate=mitigate,
                spec_window=spec_window,
                replay=replay and not mitigate,
                solver=solver,
                taint=taint,
                intervals=intervals,
            )
        except ProtocolError as exc:
            findings.append(
                Finding(
                    rule="CT-UNKNOWN",
                    severity="warning",
                    program=program.name,
                    path="",
                    message=(
                        f"{'mitigated' if mitigate else 'native'} "
                        f"relational check aborted: {exc}"
                    ),
                )
            )
            continue
        findings.extend(_variant_findings(result))
    return findings


def _variant_findings(result: SymRelResult) -> List[Finding]:
    findings: List[Finding] = []
    if result.verdict == "refuted":
        findings.append(_refutation_finding(result))
    elif result.verdict == "proved":
        message = (
            f"{result.variant} execution proved constant-time over all "
            f"inputs {_stats_suffix(result)}"
        )
        if result.spec_verdict == "proved":
            message += (
                f"; speculatively constant-time up to window "
                f"{result.spec_window}"
            )
        findings.append(
            Finding(
                rule="CT-PROVED",
                severity="info",
                program=result.program,
                path="",
                message=message,
            )
        )
    else:
        findings.append(
            Finding(
                rule="CT-UNKNOWN",
                severity="warning",
                program=result.program,
                path="",
                message=(
                    f"{result.variant} relational check inconclusive: "
                    + (
                        "; ".join(result.notes[:3])
                        or "budget exhausted"
                    )
                ),
            )
        )
    if result.spec_verdict == "refuted":
        spec_path = (
            result.exploration.spec_refutation.observation.stmt_path
        )
        findings.append(
            Finding(
                rule="CT-SPEC",
                severity="warning",
                program=result.program,
                path=spec_path,
                message=(
                    f"{result.variant} execution is sequentially "
                    f"constant-time but leaks transiently (window "
                    f"{result.spec_window}): {result.spec_observation} "
                    f"distinguishes {result.spec_model.describe()}; "
                    "invisible to the dynamic sanitizer, which never "
                    "executes mispredicted paths"
                ),
            )
        )
    elif result.spec_verdict == "unknown" and result.verdict == "proved":
        findings.append(
            Finding(
                rule="CT-UNKNOWN",
                severity="warning",
                program=result.program,
                path="",
                message=(
                    f"{result.variant} speculative pass inconclusive "
                    f"(window {result.spec_window})"
                ),
            )
        )
    return findings
