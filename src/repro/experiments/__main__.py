"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments [--jobs N] [--no-cache] [target ...]

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

The cache is also what makes a run crash-safe: each result is appended
and fsynced the moment it completes, so after a crash, an interrupt or
a failed batch, re-running the same command simulates only what is
missing.  A target whose batch fails prints the engine's per-spec
failure log and the run continues with the next target (exit status 1
at the end); so does a failed claim.

A cache that cannot be used — a corrupt record or an unwritable
directory — prints ``error: <message>`` to stderr and exits with
status 2.
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
        default=1,
        metavar="N",
        help="worker processes for independent simulations (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disables the on-disk cache (.repro_results/); each spec is "
        "still simulated once per invocation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        allow_abbrev=False,
    )
    add_arguments(parser)
    return parser


def run(args) -> int:
    """Execute parsed experiment arguments (see :func:`add_arguments`).

    A :class:`~repro.errors.StoreError` stops here: it is printed as
    one ``error:`` line on stderr and the exit status is 2.
    """
    try:
        return _run_targets(args)
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
    prev = parallel.current_settings()
    parallel.configure(jobs=args.jobs, cache=cache)
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
