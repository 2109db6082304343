"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments [--jobs N] [--no-cache]
                                [--run-dir DIR | --resume DIR |
                                 --from-store DIR]
                                [target ...]

``python -m repro experiments`` takes the same arguments (both entry
points share :func:`add_arguments`).

Targets: ``table1``, ``motivation``, ``fig2``, ``fig7``, ``fig8``,
``fig9``, ``fig10``, ``headline``, or ``all`` (default).  Full paper
sweeps take a few minutes; each target prints as it completes.

``--jobs N`` fans the independent simulations of each target across
``N`` worker processes.  Results are cached under ``.repro_results/``
(keyed by simulation parameters + simulator version) so re-runs and
cross-figure shared baselines cost nothing; ``--no-cache`` disables
the cache for this invocation.

A target whose batch fails prints the engine's per-spec failure log
and the run continues with the next target (exit status 1 at the end).
Completed simulations are already cached, so a re-run only simulates
the failures.

Durability (checkpoint/resume):

``--run-dir DIR``
    Open ``DIR`` as a crash-safe run directory (see
    :mod:`repro.experiments.store`): the sweep's specs are recorded in
    ``DIR/manifest.json`` before execution and every completed result
    is appended durably to ``DIR/results/`` as it arrives.  Re-running
    with the same ``--run-dir`` serves already-durable specs from the
    store.
``--resume DIR``
    Finish an interrupted sweep: re-enqueue exactly the manifest's
    specs (``--jobs`` defaults to the manifest's snapshot) and simulate
    only the ones whose results are not yet durable.  No target names
    are needed — the manifest *is* the work list.
``--from-store DIR``
    Rebuild the requested targets offline from ``DIR``'s store; a spec
    missing from the store is an error, never a simulation.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import EngineError
from repro.experiments import figures, parallel, tables
from repro.experiments.figures import headline_reduction
from repro.experiments.report import format_table


def _headline() -> str:
    data = headline_reduction()
    rows = [(name, ratio) for name, ratio in data.items()]
    return format_table(
        ["workload", "CT / L1d-BIA overhead reduction (geomean)"],
        rows,
        title="Headline: overhead reduction vs state-of-the-art CT",
    )


def _fig7_all() -> str:
    return "\n\n".join(
        figures.render_figure7(name)
        for name in ("dijkstra", "histogram", "permutation", "binary_search", "heappop")
    )


def _json_export() -> str:
    from repro.experiments.export import export_json

    path = "experiment_results.json"
    export_json(path)
    return f"wrote {path}"


TARGETS = {
    "table1": tables.render_table1,
    "motivation": tables.render_motivation_profile,
    "fig2": figures.render_figure2,
    "fig7": _fig7_all,
    "fig8": figures.render_figure8,
    "fig9": figures.render_figure9,
    "fig10": figures.render_figure10,
    "headline": _headline,
    "json": _json_export,
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
        help="disable the on-disk result cache (.repro_results/)",
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
    from repro.experiments import store

    rd = store.RunDirectory(args.resume)
    try:
        results = store.resume(rd, jobs=args.jobs)
        print(f"resumed {rd.path}: {len(results)} result(s) complete")
        return 0
    except EngineError as exc:
        print(f"[resume FAILED] {exc}")
        return 1
    finally:
        rd.close()


def run(args) -> int:
    """Execute parsed experiment arguments (see :func:`add_arguments`)."""
    if args.resume:
        return _resume(args)

    names = args.target or ["all"]
    if names == ["all"]:
        # `json` re-runs every sweep and writes a file; request it
        # explicitly (python -m repro.experiments json).
        names = [n for n in TARGETS if n != "json"]
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown targets: {unknown}; choices: {sorted(TARGETS)} or all")
        return 2
    cache = (
        None
        if args.no_cache
        else parallel.ResultCache(parallel.DEFAULT_CACHE_DIR)
    )
    run_dir = None
    if args.from_store or args.run_dir:
        from repro.experiments.store import RunDirectory

        run_dir = RunDirectory(
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
                print(TARGETS[name]())
            except EngineError as exc:
                # Partial failure: successes are already cached; report
                # the per-spec failure log and press on.
                status = 1
                print(f"[{name} FAILED] {exc}")
            print(f"[{name} done in {time.time() - start:.1f}s]\n")
    finally:
        parallel.configure(**prev._asdict())
        if run_dir is not None and not run_dir.readonly:
            run_dir.close()
    return status


def main(argv) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
