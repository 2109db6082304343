"""ctcheck orchestration: built-in programs, workload DS audits, CLI glue.

Two target families:

* **IR programs** (:mod:`repro.lang.programs`) are checked statically
  with :func:`repro.analysis.ctlint.lint` (taint + intervals + DS
  coverage);
* **workloads** (:data:`repro.workloads.WORKLOADS`) register their
  dataflow linearization sets imperatively at run time, so they are
  audited *dynamically*: the workload runs once on a recording
  context (:class:`DSAuditContext`) that checks every secret-dependent
  access against the DS it was issued under and flags registrations no
  access ever uses.

:func:`run_ctcheck` aggregates both into a :class:`CTCheckResult`
whose exit code the ``python -m repro ctcheck`` subcommand returns:
1 iff any error-severity finding (``DS-COVERAGE``, ``CT-TRIPCOUNT``)
survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.ctlint import Finding, lint, max_severity
from repro.analysis.facts import ProgramFacts, program_facts
from repro.ct.context import MitigationContext
from repro.ct.ds import DataflowLinearizationSet
from repro.lang import ir
from repro.lang.programs import (
    binary_search_program,
    conditional_sum_program,
    des_program,
    histogram_program,
    lookup_program,
    masked_lookup_program,
    speculative_lookup_program,
    swap_program,
)

#: Builders for every built-in program, at checking-friendly sizes.
#: (Interval bounds do not depend on the concrete sizes; these keep
#: the pretty-printed diagnostics small.)  Tests monkeypatch entries
#: in here to drive the CLI over synthetic programs.  Sizes are chosen
#: so every program's secret-indexed footprint spans multiple cache
#: lines — the symbolic relational checker (and the line-granularity
#: attacker it models) can only distinguish secrets that reach
#: different lines, so a 16-word array (one 64-byte line) would make
#: the native leak invisible by accident rather than by mitigation.
BUILTIN_PROGRAM_SPECS: Dict[str, Callable[[], ir.Program]] = {
    "lookup": lambda: lookup_program(64)[0],
    "histogram": lambda: histogram_program(16, 8)[0],
    "conditional_sum": lambda: conditional_sum_program(8)[0],
    "swap": lambda: swap_program(64)[0],
    "masked_lookup": lambda: masked_lookup_program(64)[0],
    "speculative_lookup": lambda: speculative_lookup_program(64)[0],
    "binary_search": lambda: binary_search_program(64)[0],
    "des": lambda: des_program(64)[0],
}


def builtin_programs() -> Dict[str, ir.Program]:
    """Instantiate every registered built-in program."""
    return {name: build() for name, build in BUILTIN_PROGRAM_SPECS.items()}


def check_program(
    program: ir.Program,
    ds_map: Optional[Dict[str, tuple]] = None,
    facts: Optional[ProgramFacts] = None,
) -> List[Finding]:
    """Static ctlint over one IR program (see :mod:`.ctlint`).

    ``facts`` supplies precomputed taint/interval analyses so batch
    callers walk each program once for all checkers.
    """
    if facts is not None:
        return lint(
            program,
            taint=facts.taint,
            intervals=facts.intervals,
            ds_map=ds_map,
        )
    return lint(program, ds_map=ds_map)


# ---------------------------------------------------------------------------
# Dynamic workload DS audit
# ---------------------------------------------------------------------------


class DSAuditContext(MitigationContext):
    """A mitigation context that *audits* instead of mitigating.

    Accesses execute like the insecure baseline (straight to the
    cache) while the context records every DS registration and checks
    each secret-dependent access's address against the DS it was
    issued under — accumulating findings rather than raising, so one
    run reports every violation.
    """

    name = "ds-audit"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.registered: Dict[int, DataflowLinearizationSet] = {}
        self.used: set = set()
        self.violations: List[str] = []

    def register_ds(
        self, base: int, size_bytes: int, name: str = ""
    ) -> DataflowLinearizationSet:
        ds = super().register_ds(base, size_bytes, name)
        self.registered[id(ds)] = ds
        return ds

    def _check(self, ds: DataflowLinearizationSet, addr: int) -> None:
        self.used.add(id(ds))
        if addr not in ds:
            self.violations.append(
                f"secret access {addr:#x} outside DS {ds.name!r} "
                f"({len(ds.lines)} lines)"
            )

    def load(self, ds: DataflowLinearizationSet, addr: int) -> int:
        self._check(ds, addr)
        return self.machine.load_word(addr)

    def store(
        self, ds: DataflowLinearizationSet, addr: int, value: int
    ) -> None:
        self._check(ds, addr)
        self.machine.store_word(addr, value)

    def gather(
        self, ds: DataflowLinearizationSet, addrs: Sequence[int]
    ) -> List[int]:
        return [self.load(ds, a) for a in addrs]


#: Per-workload audit sizes: small enough for a fast unmitigated run,
#: large enough to exercise every secret-dependent access path.
AUDIT_SIZES: Dict[str, int] = {
    "dijkstra": 16,
    "histogram": 200,
    "permutation": 128,
    "binary_search": 256,
    "heappop": 128,
}


def audit_workload_ds(
    workload: str,
    size: Optional[int] = None,
    seed: int = 1,
) -> List[Finding]:
    """Run one workload on an auditing context; report DS findings.

    * ``DS-COVERAGE`` (error) — a secret-dependent access fell outside
      the DS it was issued under;
    * ``CT-DEADMIT`` (warning) — a registered DS that no
      secret-dependent access ever used (dead registration).
    """
    from repro.core.machine import Machine, MachineConfig
    from repro.workloads import WORKLOADS

    descriptor = WORKLOADS[workload]
    if size is None:
        size = AUDIT_SIZES.get(workload, descriptor.sizes[0])
    ctx = DSAuditContext(Machine(MachineConfig()))
    descriptor.run(ctx, size, seed)
    findings: List[Finding] = []
    target = f"workload:{workload}"
    for violation in ctx.violations:
        findings.append(
            Finding(
                rule="DS-COVERAGE",
                severity="error",
                program=target,
                path="",
                message=violation,
            )
        )
    for ds_id, ds in ctx.registered.items():
        if ds_id not in ctx.used:
            findings.append(
                Finding(
                    rule="CT-DEADMIT",
                    severity="warning",
                    program=target,
                    path="",
                    message=(
                        f"DS {ds.name!r} ({len(ds.lines)} lines) was "
                        "registered but no secret-dependent access "
                        "used it: dead mitigation registration"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class CTCheckResult:
    """Everything one ctcheck invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    #: human-readable names of every target checked
    checked: List[str] = field(default_factory=list)
    #: ``--repair`` mode only: program name -> its RepairResult
    #: (:class:`repro.analysis.repair.RepairResult`), for callers that
    #: want the repaired IR, transforms, and overhead — the findings
    #: list carries the serializable CT-REPAIR provenance; results
    #: produced through the engine carry ``residual=None``
    repairs: Dict[str, object] = field(default_factory=dict)
    #: solver counters summed over *every* checked program (symbolic
    #: or repair runs only) — previously only the last program's stats
    #: were observable through the per-variant results
    solver_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        worst = max_severity(self.findings) or "none"
        return (
            f"checked {len(self.checked)} target(s): "
            f"{counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['info']} info — worst severity: "
            f"{worst}"
        )

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "checked": list(self.checked),
            "findings": [f.as_dict() for f in self.findings],
            "counts": self.counts(),
            "exit_code": self.exit_code,
        }
        if self.solver_stats:
            # Key present only when the symbolic checker actually ran,
            # so plain-lint --json output stays byte-identical.
            out["solver_stats"] = dict(self.solver_stats)
        if self.repairs:
            # Key present only in --repair runs, so non-repair --json
            # output stays byte-identical to previous releases.
            out["repairs"] = {
                name: {
                    "verdict": res.verdict,
                    "rounds": res.rounds,
                    "transforms": [
                        {
                            "kind": t.kind,
                            "rule": t.rule,
                            "path": t.path,
                            "final_path": t.final_path,
                            "description": t.description,
                        }
                        for t in res.applied
                    ],
                    "overhead": (
                        res.overhead.as_dict()
                        if res.overhead is not None
                        else None
                    ),
                }
                for name, res in sorted(self.repairs.items())
            }
        return out


def _repair_findings(name: str, res) -> List[Finding]:
    """Render one RepairResult as deterministic findings.

    One ``CT-REPAIR`` info per applied transform (carrying the fixed
    finding's rule and both the applied-at and final statement paths),
    plus a terminal verdict finding: ``CT-PROVED`` info on success,
    ``CT-REL`` error with the residual counterexample when the leak is
    irreparable, ``CT-UNKNOWN`` warning when the checker gave up.
    """
    findings: List[Finding] = []
    for t in res.applied:
        findings.append(
            Finding(
                rule="CT-REPAIR",
                severity="info",
                program=name,
                path=t.final_path,
                message=(
                    f"applied {t.kind} for {t.rule} at {t.path}: "
                    f"{t.description}"
                ),
            )
        )
    if res.verdict == "proved":
        message = (
            f"repaired program proved constant-time after "
            f"{res.rounds} round(s), {len(res.applied)} transform(s)"
        )
        if res.overhead is not None:
            message += (
                f"; {res.overhead.repaired_cycles:.0f} cycles vs "
                f"{res.overhead.manual_cycles:.0f} hand-mitigated "
                f"({res.overhead.vs_manual:.2f}x)"
            )
        findings.append(
            Finding(
                rule="CT-PROVED",
                severity="info",
                program=name,
                path="",
                message=message,
            )
        )
    elif res.verdict == "irreparable":
        residual = ""
        if res.residual is not None and res.residual.observation:
            residual = f" (residual: {res.residual.observation})"
        findings.append(
            Finding(
                rule="CT-REL",
                severity="error",
                program=name,
                path="",
                message=(
                    f"automatic repair failed: {res.reason}{residual}"
                ),
            )
        )
    else:
        findings.append(
            Finding(
                rule="CT-UNKNOWN",
                severity="warning",
                program=name,
                path="",
                message=f"automatic repair inconclusive: {res.reason}",
            )
        )
    return findings


def run_ctcheck(
    programs: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    include_workloads: bool = True,
    seed: int = 1,
    symbolic: bool = False,
    spec_window: int = 0,
    replay: bool = True,
    repair: bool = False,
    repair_max_rounds: int = 12,
    vcache=None,
) -> CTCheckResult:
    """Check built-in IR programs and/or workload DS registrations.

    ``programs``/``workloads`` default to *all* registered ones;
    ``include_workloads=False`` skips the (slower, dynamic) workload
    audits entirely when only program names were requested.

    ``symbolic=True`` additionally runs the static relational checker
    (:mod:`repro.analysis.symrel`) over each IR program's native and
    mitigated variants — expect ``CT-REL`` errors for every builtin
    whose *native* variant leaks (that is the point of the builtins),
    so the exit code is 1 by design there; the mitigated variants are
    expected to come back ``CT-PROVED``.  ``spec_window > 0`` enables
    the speculative pass; ``replay=False`` skips sanitizer replays of
    counterexamples (faster, less evidence).

    ``repair=True`` runs the automatic mitigation synthesizer
    (:func:`repro.analysis.repair.repair_program`) over each program
    instead of merely diagnosing it: applied transforms surface as
    ``CT-REPAIR`` findings, a residual (irreparable) leak as a
    ``CT-REL`` error, and the per-program
    :class:`~repro.analysis.repair.RepairResult` objects ride on
    ``CTCheckResult.repairs`` (``residual`` stripped — it pins the
    symbolic exploration's term DAGs).

    Every target runs through the verification engine
    (:mod:`repro.analysis.engine`): each program is checked under a
    fresh intern scope with one solver shared across the
    lint/native/mitigated/repair passes, and ``vcache`` (a
    :class:`~repro.analysis.vcache.VerdictCache`) serves unchanged
    targets their cached findings bit-identically.  Findings are
    merged in target order (programs in request order, then
    workloads), so ``--json`` output is byte-identical between fresh
    and cached runs.
    """
    from repro.analysis.engine import CheckSpec, run_check_specs
    from repro.workloads import WORKLOADS

    result = CTCheckResult()
    registry = BUILTIN_PROGRAM_SPECS
    program_names = (
        list(programs) if programs is not None else sorted(registry)
    )
    specs: List[CheckSpec] = []
    for name in program_names:
        specs.append(
            CheckSpec(
                kind="program",
                name=name,
                program=registry[name](),
                symbolic=symbolic,
                spec_window=spec_window,
                replay=replay,
                repair=repair,
                repair_max_rounds=repair_max_rounds,
            )
        )
    if include_workloads:
        workload_names = (
            list(workloads)
            if workloads is not None
            else sorted(WORKLOADS)
        )
        for name in workload_names:
            descriptor = WORKLOADS[name]
            specs.append(
                CheckSpec(
                    kind="workload",
                    name=name,
                    size=AUDIT_SIZES.get(name, descriptor.sizes[0]),
                    seed=seed,
                )
            )
    outputs = run_check_specs(specs, vcache=vcache)
    for spec, output in zip(specs, outputs):
        result.findings.extend(output.findings)
        result.checked.append(f"{spec.kind}:{spec.name}")
        if output.repair is not None:
            result.repairs[spec.name] = output.repair
        for stat, value in output.solver_stats.items():
            result.solver_stats[stat] = (
                result.solver_stats.get(stat, 0) + value
            )
    return result
