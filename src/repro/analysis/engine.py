"""Incrementally-cached verification engine.

One ``ctcheck`` invocation is a bag of independent *check targets* —
IR programs (lint + relational symbolic checking + automatic repair)
and workloads (dynamic DS audits).  Each target is described by a
:class:`CheckSpec`, executed by :func:`check_target`, and produces a
:class:`CheckOutput`; :func:`run_check_specs` executes a batch:

1. **Verdict cache** — every spec is content-addressed by
   :meth:`CheckSpec.key` (canonical IR hash x checker configuration x
   toolchain version) and served from the verdict cache, a
   :class:`~repro.experiments.store.Store`, when an identical check
   already ran; served findings are bit-identical to a fresh run.
2. **Execution** — the remaining specs go to the experiment engine's
   batch executor (:func:`repro.experiments.parallel.execute`), with
   the same failure rule and salvage into the verdict cache.  Checks
   take milliseconds, so ``ctcheck`` runs them in-process; ``jobs >
   1`` fans them across a process pool for library callers.

Determinism: a spec fully determines its output.  Every program check
runs under a fresh intern scope
(:func:`repro.analysis.symrel.expr.intern_scope`) with one fresh
:class:`~repro.analysis.symrel.solve.Solver` shared across the
lint/native/mitigated/repair passes of that program, in *every*
execution mode — so results (findings, solver statistics, repair
provenance) are bit-identical whether a spec ran inline, in a worker
process, or was served from the cache, and merged output is
byte-identical regardless of completion order because
:func:`run_check_specs` returns outputs in submission order.

The shared per-program solver is also the incremental-verification
lever: its pointer-keyed memo tables (valid for the whole intern
scope) mean the mitigated walk re-proves for free every observation
pair the native walk already decided, and each repair round re-proves
only the queries the last transform actually changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro
from repro.analysis.ctlint import Finding
from repro.analysis.symrel import symrel_findings
from repro.analysis.symrel.expr import intern_scope
from repro.analysis.symrel.solve import Solver
from repro.lang import ir
from repro.lang.pretty import dump

#: Bumped when the checker pipeline itself changes meaningfully enough
#: to invalidate cached verdicts independently of the package version.
CHECKER_ID = "ctcheck-engine/1"


@dataclass
class CheckSpec:
    """One independent verification target.

    ``kind`` is ``"program"`` (static lint + symbolic relational check
    + optional repair over ``program``) or ``"workload"`` (dynamic DS
    audit of the registered workload ``name`` at ``size``).
    """

    kind: str
    name: str
    program: Optional[ir.Program] = None
    size: Optional[int] = None
    seed: int = 1
    symbolic: bool = False
    spec_window: int = 0
    replay: bool = True
    repair: bool = False
    repair_max_rounds: int = 12

    def key(self) -> str:
        """Content hash: canonical IR x checker config x version.

        The program is fingerprinted through its canonical
        pretty-printed form (:func:`repro.lang.pretty.dump` with
        stable statement paths) — the same IR built twice hashes
        equal, and any single-statement mutation changes the key.
        Checker configuration and :data:`repro.__version__` are part
        of the key, so a different ``--spec-window`` or a toolchain
        bump re-checks everything rather than serving stale verdicts.
        """
        payload = {
            "checker": CHECKER_ID,
            "kind": self.kind,
            "name": self.name,
            "ir": (
                None
                if self.program is None
                else dump(self.program, paths=True)
            ),
            "size": self.size,
            "seed": self.seed,
            "symbolic": self.symbolic,
            "spec_window": self.spec_window,
            "replay": self.replay,
            "repair": self.repair,
            "repair_max_rounds": self.repair_max_rounds,
            "version": repro.__version__,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CheckOutput:
    """Everything one check target produced (picklable, cacheable)."""

    kind: str
    name: str
    findings: List[Finding] = field(default_factory=list)
    #: per-target solver counters (programs with symbolic/repair only)
    solver_stats: Dict[str, int] = field(default_factory=dict)
    #: ``--repair`` runs: the :class:`~repro.analysis.repair.
    #: RepairResult`, with ``residual`` stripped — the residual holds
    #: the exploration's term DAGs, which are scope-local and far too
    #: heavy to ship across a process boundary or pin in the cache
    repair: Optional[object] = None


def check_target(spec: CheckSpec) -> CheckOutput:
    """Execute one spec in this process (the pool trampoline).

    Program checks run under a fresh intern scope with one shared
    solver across every pass — see the module docstring for why this
    is both the determinism and the incrementality story.
    """
    if spec.kind == "workload":
        from repro.analysis.api import audit_workload_ds

        findings = audit_workload_ds(
            spec.name, size=spec.size, seed=spec.seed
        )
        return CheckOutput(
            kind=spec.kind, name=spec.name, findings=list(findings)
        )
    if spec.kind != "program":
        raise ValueError(
            f"unknown CheckSpec kind {spec.kind!r}; "
            "choices: program, workload"
        )
    # Late import through the api module so test doubles installed
    # there (e.g. a counting ``program_facts``) stay effective.
    from repro.analysis import api

    program = spec.program
    output = CheckOutput(kind=spec.kind, name=spec.name)
    with intern_scope():
        solver = Solver()
        facts = api.program_facts(program)
        output.findings.extend(api.check_program(program, facts=facts))
        if spec.symbolic:
            output.findings.extend(
                symrel_findings(
                    program,
                    spec_window=spec.spec_window,
                    replay=spec.replay,
                    solver=solver,
                    taint=facts.taint,
                    intervals=facts.intervals,
                )
            )
        if spec.repair:
            from repro.analysis.repair import repair_program

            repair_result = repair_program(
                program,
                max_rounds=spec.repair_max_rounds,
                spec_window=spec.spec_window,
                solver=solver,
            )
            output.findings.extend(
                api._repair_findings(spec.name, repair_result)
            )
            output.repair = dataclasses.replace(
                repair_result, residual=None
            )
        if spec.symbolic or spec.repair:
            output.solver_stats = solver.stats.as_dict()
    return output


def run_check_specs(
    specs: Sequence[CheckSpec],
    jobs: int = 1,
    vcache=None,
) -> List[CheckOutput]:
    """Execute ``specs``, returning outputs in submission order.

    ``vcache`` (a :class:`~repro.experiments.store.Store`) serves
    already-proved specs without execution and receives every fresh
    output the moment it completes.  The rest run through
    :func:`repro.experiments.parallel.execute`: ``jobs > 1`` fans them
    across a process pool, and any spec that fails raises
    :class:`~repro.errors.EngineError` carrying the per-spec failure
    log and the completed outputs.
    """
    from repro.experiments.parallel import execute

    keys = [spec.key() for spec in specs]
    unique = dict(zip(keys, specs))  # duplicate targets: check once
    results: Dict[str, CheckOutput] = {}
    if vcache is not None:
        for key in unique:
            hit = vcache.get(key)
            if hit is not None:
                results[key] = hit
    pending = [(k, spec) for k, spec in unique.items() if k not in results]
    execute(pending, check_target, jobs, results,
            None if vcache is None else vcache.put)
    return [results[key] for key in keys]
