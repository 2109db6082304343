"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run <workload>``
    Run one Table-2 workload under every scheme and print the
    overhead table (one Figure-7 row).
``crypto <cipher>``
    Same for one Fig.-9 cipher.
``config``
    Print the simulated machine configuration (Table 1).
``schemes`` / ``workloads``
    List what's available.
``experiments [target ...]``
    Regenerate the paper's tables/figures (delegates to
    :mod:`repro.experiments.__main__`).
``ctcheck [--all] [--symbolic [--spec-window N]] [--repair]``
    Constant-time lint: check every built-in IR program
    (:mod:`repro.analysis.ctlint`: taint, interval bounds, DS
    coverage) and audit every workload's registered dataflow
    linearization sets.  Exits 1 iff an error-severity finding
    (``DS-COVERAGE``, ``CT-TRIPCOUNT``) is reported.
    ``--symbolic`` adds the static relational symbolic checker
    (:mod:`repro.analysis.symrel`): proofs/refutations with concrete
    secret pairs, sanitizer replays, and (``--spec-window N``) a
    bounded speculative pass.  ``--repair`` runs the automatic
    mitigation synthesizer (:mod:`repro.analysis.repair`) over each
    program — localize, transform, re-prove — reporting one
    ``CT-REPAIR`` finding per applied transform (``--repair-out FILE``
    dumps the repaired IR, ``--max-rounds N`` bounds the loop).
    ``--list-rules`` prints the catalog.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.experiments.config import SCHEMES
from repro.experiments.report import format_bars, format_table
from repro.experiments.runner import overhead, run_crypto, run_workload
from repro.workloads import WORKLOADS
from repro.workloads.crypto import CIPHERS


def _cmd_run(args) -> int:
    workload = WORKLOADS[args.workload]
    size = args.size or workload.sizes[-1]
    schemes = args.scheme or ["insecure", "ct", "bia-l1d", "bia-l2"]
    base = None
    rows = []
    for scheme in schemes:
        result = run_workload(args.workload, size, scheme, seed=args.seed)
        if base is None:
            base = result
        rows.append(
            (scheme, result.cycles, overhead(result, base))
        )
    print(
        format_table(
            ["scheme", "cycles", "overhead"],
            rows,
            title=f"{workload.label(size)} ({workload.description})",
        )
    )
    if args.bars:
        print()
        print(format_bars([(r[0], r[2]) for r in rows], title="overhead"))
    return 0


def _cmd_crypto(args) -> int:
    base = None
    rows = []
    for scheme in args.scheme or ["insecure", "ct", "bia-l1d"]:
        result = run_crypto(args.cipher, scheme, seed=args.seed)
        if base is None:
            base = result
        rows.append((scheme, result.cycles, overhead(result, base)))
    print(format_table(["scheme", "cycles", "overhead"], rows, title=args.cipher))
    return 0


def _cmd_config(args) -> int:
    from repro.experiments.tables import render_table1

    print(render_table1())
    return 0


def _cmd_schemes(args) -> int:
    for scheme in SCHEMES:
        print(scheme)
    return 0


def _cmd_workloads(args) -> int:
    for name, workload in WORKLOADS.items():
        sizes = ", ".join(str(s) for s in workload.sizes)
        print(f"{name:15} sizes: {sizes:40} {workload.description}")
    for cipher in CIPHERS:
        print(f"crypto:{cipher}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.__main__ import run

    return run(args)


def _cmd_ctcheck(args) -> int:
    import json
    import sys

    from repro.analysis.api import BUILTIN_PROGRAM_SPECS, run_ctcheck
    from repro.analysis.ctlint import RULES, SEVERITY_ORDER

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule in sorted(RULES):
            severity, description = RULES[rule]
            print(f"{rule:<{width}}  {severity:<7}  {description}")
        return 0
    unknown = [
        name for name in args.program or [] if name not in BUILTIN_PROGRAM_SPECS
    ]
    if unknown:
        raise SystemExit(
            f"unknown program(s) {unknown}; "
            f"choices: {sorted(BUILTIN_PROGRAM_SPECS)}"
        )
    programs = args.program if args.program else None
    workloads = args.workload if args.workload else None
    # --program alone narrows the run to static program checks unless
    # workloads were also requested explicitly (or --all forces both).
    include_workloads = bool(
        args.all or workloads or (not args.program and not args.no_workloads)
    )
    if args.no_workloads:
        include_workloads = False
    vcache = None
    if args.vcache:
        from repro.analysis.vcache import VerdictCache

        vcache = VerdictCache(args.vcache)
    result = run_ctcheck(
        programs=programs,
        workloads=workloads,
        include_workloads=include_workloads,
        seed=args.seed,
        symbolic=args.symbolic,
        spec_window=args.spec_window,
        replay=not args.no_replay,
        repair=args.repair,
        repair_max_rounds=args.max_rounds,
        vcache=vcache,
    )
    if vcache is not None:
        # Engine stats go to stderr so --json stdout stays
        # byte-identical between cold and warm runs.
        print(
            f"ctcheck engine: {vcache.stats.misses} target(s) checked, "
            f"{vcache.stats.hits} served from verdict cache",
            file=sys.stderr,
        )
    if args.repair and args.repair_out:
        from repro.lang.pretty import dump

        chunks = []
        for name in sorted(result.repairs):
            res = result.repairs[name]
            chunks.append(f"# {res.summary()}")
            chunks.append(dump(res.repaired, paths=True))
        with open(args.repair_out, "w") as fh:
            fh.write("\n\n".join(chunks) + "\n")
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return result.exit_code
    threshold = SEVERITY_ORDER.index(args.min_severity)
    shown = [
        f
        for f in result.findings
        if SEVERITY_ORDER.index(f.severity) >= threshold
    ]
    for finding in shown:
        print(finding.format())
    hidden = len(result.findings) - len(shown)
    if hidden:
        print(f"({hidden} finding(s) below --min-severity hidden)")
    print(result.summary())
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.__main__ import (
        add_arguments as add_experiment_arguments,
        int_at_least,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Hardware Support for Constant-Time "
        "Programming' (MICRO 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload under chosen schemes")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--size", type=int, default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--scheme", action="append", choices=SCHEMES, default=None
    )
    run.add_argument("--bars", action="store_true", help="also draw bars")
    run.set_defaults(fn=_cmd_run)

    crypto = sub.add_parser("crypto", help="run one Fig.-9 cipher")
    crypto.add_argument("cipher", choices=sorted(CIPHERS))
    crypto.add_argument("--seed", type=int, default=1)
    crypto.add_argument(
        "--scheme", action="append", choices=SCHEMES, default=None
    )
    crypto.set_defaults(fn=_cmd_crypto)

    config = sub.add_parser("config", help="print the Table-1 machine")
    config.set_defaults(fn=_cmd_config)

    schemes = sub.add_parser("schemes", help="list mitigation schemes")
    schemes.set_defaults(fn=_cmd_schemes)

    workloads = sub.add_parser("workloads", help="list workloads")
    workloads.set_defaults(fn=_cmd_workloads)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate the paper's tables/figures",
        allow_abbrev=False,
    )
    add_experiment_arguments(experiments)
    experiments.set_defaults(fn=_cmd_experiments)

    ctcheck = sub.add_parser(
        "ctcheck",
        help="constant-time lint: IR programs + workload DS audits",
    )
    ctcheck.add_argument(
        "--all",
        action="store_true",
        help="check every built-in program and every workload "
        "(the default when no --program/--workload is given)",
    )
    ctcheck.add_argument(
        "--program",
        action="append",
        default=None,
        metavar="NAME",
        help="check only this built-in IR program (repeatable)",
    )
    ctcheck.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        default=None,
        help="audit only this workload's DS registrations (repeatable)",
    )
    ctcheck.add_argument(
        "--no-workloads",
        action="store_true",
        help="skip the dynamic workload DS audits",
    )
    ctcheck.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="hide findings below this severity (text output only)",
    )
    ctcheck.add_argument("--seed", type=int, default=1)
    ctcheck.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    ctcheck.add_argument(
        "--symbolic",
        action="store_true",
        help="also run the static relational symbolic checker over "
        "each IR program's native and mitigated variants (CT-REL / "
        "CT-SPEC / CT-PROVED findings; native leaks exit 1 by design)",
    )
    ctcheck.add_argument(
        "--spec-window",
        type=int_at_least(0),
        default=0,
        metavar="N",
        help="with --symbolic: explore mispredicted branch directions "
        "transiently for up to N statements (0 = sequential only)",
    )
    ctcheck.add_argument(
        "--no-replay",
        action="store_true",
        help="with --symbolic: skip replaying counterexamples through "
        "the dynamic sanitizer",
    )
    ctcheck.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (ID, severity, description) and exit",
    )
    ctcheck.add_argument(
        "--repair",
        action="store_true",
        help="automatically repair each IR program: localize leaks, "
        "transform the IR (branch linearization, DS routing, "
        "trip-count padding), re-prove with the relational checker; "
        "CT-REPAIR findings carry the provenance, residual leaks "
        "exit 1",
    )
    ctcheck.add_argument(
        "--repair-out",
        metavar="FILE",
        default=None,
        help="with --repair: write the repaired programs "
        "(pretty-printed IR with stable paths) to FILE",
    )
    ctcheck.add_argument(
        "--max-rounds",
        type=int_at_least(0),
        default=12,
        metavar="N",
        help="with --repair: give up after N localize/transform/"
        "re-prove rounds per program (default 12)",
    )
    ctcheck.add_argument(
        "--vcache",
        metavar="DIR",
        default=None,
        help="on-disk verdict cache: unchanged targets are served "
        "their previous findings bit-identically; any IR mutation, "
        "checker-config change, or version bump forces a re-check",
    )
    ctcheck.set_defaults(fn=_cmd_ctcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
