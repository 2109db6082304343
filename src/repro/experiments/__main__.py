"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments [--jobs N] [--no-cache]
                                [--run-dir DIR | --resume DIR |
                                 --from-store DIR]
                                [target ...]

``python -m repro experiments`` takes the same arguments (both entry
points share :func:`add_arguments`).

Targets: ``table1``, ``motivation``, ``fig2``, ``fig7``, ``fig8``,
``fig9``, ``fig10``, ``headline``, or ``all`` (default; ``json``, which
writes ``experiment_results.json``, runs only when named).  The full
paper sweeps take a few seconds; each target prints as it completes.

Each target's data is computed once (:data:`TARGETS` pairs its
generator with a renderer of that data).  Its table is printed, then
one line per paper claim about that data
(:mod:`repro.experiments.claims`)::

    [claim fig7.dijkstra.l2-beats-l1d-at-128 (Sec. 7.3.2): holds]

Exit status: 0 when every requested target ran and every claim holds;
1 when a claim reads ``FAILED`` or a target's batch failed; 2 for a
bad flag, an unknown target or an unusable store.

``--jobs N`` fans the independent simulations of each target across
``N`` worker processes.  Results are cached in
``.repro_results/records.jsonl`` (keyed by simulation parameters +
simulator version) so re-runs and cross-figure shared baselines cost
nothing; ``--no-cache`` disables the on-disk cache for this invocation,
while an in-memory one still simulates each spec once across targets.

A target whose batch fails prints the engine's per-spec failure log
and the run continues with the next target (exit status 1 at the end);
so does a failed claim.  Completed simulations are already cached, so
a re-run only simulates the failures.

Durability (checkpoint/resume):

``--run-dir DIR``
    Open ``DIR`` as a crash-safe run directory (see
    :mod:`repro.experiments.store`): the sweep's specs are recorded in
    ``DIR/manifest.json`` before execution and every completed result
    is appended durably to ``DIR/records.jsonl`` as it arrives.
    Re-running with the same ``--run-dir`` serves already-durable specs
    from the store.
``--resume DIR``
    Finish an interrupted sweep: re-enqueue exactly the manifest's
    specs (``--jobs`` defaults to the manifest's snapshot) and simulate
    only the ones whose results are not yet durable.  No target names
    are needed — the manifest *is* the work list.
``--from-store DIR``
    Rebuild the requested targets offline from ``DIR``'s store; a spec
    missing from the store is an error, never a simulation.

A store that cannot be used — a ``--resume`` directory without a
manifest, a missing ``--from-store`` directory, a corrupt record or an
unwritable directory — prints ``error: <message>`` to stderr and exits
with status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, NamedTuple

from repro.errors import EngineError, StoreError
from repro.experiments import claims, figures, parallel, store, tables
from repro.experiments.report import format_table
from repro.workloads import WORKLOADS


class Target(NamedTuple):
    """A target's data generator and the renderer of that data."""

    data: Callable[[], object]
    render: Callable[[object], str]


def _figure7_all() -> dict:
    return {name: figures.figure7(name) for name in WORKLOADS}


def _render_figure7_all(data: dict) -> str:
    return "\n\n".join(
        figures.render_figure7(name, panel) for name, panel in data.items()
    )


def _render_headline(data: dict) -> str:
    return format_table(
        ["workload", "CT / L1d-BIA overhead reduction (geomean)"],
        list(data.items()),
        title="Headline: overhead reduction vs state-of-the-art CT",
    )


def _json_export() -> str:
    from repro.experiments.export import export_json

    path = "experiment_results.json"
    export_json(path)
    return path


TARGETS = {
    "table1": Target(tables.table1_rows, tables.render_table1),
    "motivation": Target(
        tables.motivation_profile, tables.render_motivation_profile
    ),
    "fig2": Target(figures.figure2, figures.render_figure2),
    "fig7": Target(_figure7_all, _render_figure7_all),
    "fig8": Target(figures.figure8, figures.render_figure8),
    "fig9": Target(figures.figure9, figures.render_figure9),
    "fig10": Target(figures.figure10, figures.render_figure10),
    "headline": Target(figures.headline_reduction, _render_headline),
    "json": Target(_json_export, "wrote {}".format),
}


def int_at_least(low: int):
    """An argparse ``type`` accepting integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return value

    return parse


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment flags, shared by both command-line entry points."""
    parser.add_argument(
        "target",
        nargs="*",
        help=f"targets to regenerate: {', '.join(TARGETS)} or all "
        "(default: all but json)",
    )
    parser.add_argument(
        "--jobs",
        type=int_at_least(1),
        default=None,
        metavar="N",
        help="worker processes for independent simulations (default 1; "
        "with --resume, the manifest's value)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disables the on-disk cache (.repro_results/); each spec is "
        "still simulated once per invocation",
    )
    durable = parser.add_mutually_exclusive_group()
    durable.add_argument(
        "--run-dir",
        metavar="DIR",
        help="crash-safe run directory: manifest + durable results "
        "(resumable with --resume DIR)",
    )
    durable.add_argument(
        "--resume",
        metavar="DIR",
        help="finish an interrupted sweep from its run directory "
        "(already-durable specs are served from the store)",
    )
    durable.add_argument(
        "--from-store",
        metavar="DIR",
        help="rebuild targets offline from a run directory's store "
        "(missing specs error instead of simulating)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        allow_abbrev=False,
    )
    add_arguments(parser)
    return parser


def _resume(args) -> int:
    """``--resume DIR``: finish the manifest, no targets involved."""
    try:
        results = store.resume(args.resume, jobs=args.jobs)
    except EngineError as exc:
        print(f"[resume FAILED] {exc}")
        return 1
    print(f"resumed {args.resume}: {len(results)} result(s) complete")
    return 0


def run(args) -> int:
    """Execute parsed experiment arguments (see :func:`add_arguments`).

    A :class:`~repro.errors.StoreError` stops here: it is printed as
    one ``error:`` line on stderr and the exit status is 2.
    """
    try:
        return _resume(args) if args.resume else _run_targets(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_targets(args) -> int:
    names = args.target or ["all"]
    if names == ["all"]:
        # `json` re-runs every sweep and writes a file; request it
        # explicitly (python -m repro.experiments json).
        names = [n for n in TARGETS if n != "json"]
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown targets: {unknown}; choices: {sorted(TARGETS)} or all")
        return 2
    # Under --no-cache an in-memory store still shares results across
    # targets (fig8 and headline reuse fig7's runs); nothing hits disk.
    cache = store.Store(None if args.no_cache else parallel.DEFAULT_CACHE_DIR)
    run_dir = None
    if args.from_store or args.run_dir:
        run_dir = store.RunDirectory(
            args.from_store or args.run_dir, readonly=bool(args.from_store)
        )
    prev = parallel.current_settings()
    parallel.configure(
        jobs=args.jobs or 1,
        cache=cache,
        store=run_dir,
        offline=bool(args.from_store),
    )
    status = 0
    try:
        for name in names:
            start = time.time()
            try:
                data = TARGETS[name].data()
            except EngineError as exc:
                # Partial failure: successes are already cached; report
                # the per-spec failure log and press on.
                status = 1
                print(f"[{name} FAILED] {exc}")
            else:
                print(TARGETS[name].render(data))
                lines, all_hold = claims.check(name, data)
                for line in lines:
                    print(line)
                if not all_hold:
                    status = 1
            print(f"[{name} done in {time.time() - start:.1f}s]\n")
    finally:
        parallel.configure(**prev._asdict())
    return status


def main(argv) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
