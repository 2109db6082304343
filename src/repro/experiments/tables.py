"""Table reproductions: Table 1 (config) and the Sec. 3.1 profile table."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.machine import MachineConfig
from repro.experiments.config import default_config
from repro.experiments.parallel import _UNSET, RunSpec, run_many
from repro.experiments.report import format_table


def table1_rows(config: Optional[MachineConfig] = None) -> Dict[str, str]:
    """Table 1: the simulated machine configuration."""
    return (config or default_config()).describe()


def render_table1(config: Optional[MachineConfig] = None) -> str:
    rows = [(k, v) for k, v in table1_rows(config).items()]
    return format_table(["Configuration", "Parameter"], rows, title="Table 1")


def motivation_profile(
    bins: int = 10000, seed: int = 1, store=_UNSET, offline=_UNSET
) -> Dict[str, Dict[str, float]]:
    """The Sec. 3.1 cachegrind-style table for Histogram.

    Three versions — original (insecure), secure (scalar software CT),
    secure-with-avx (SIMD software CT) — profiled for L1d references,
    L1i references, and LLC misses.  The paper's finding: the secure
    versions inflate L1d/L1i refs by orders of magnitude while LLC
    misses barely move (the overhead is not DRAM-bound).

    ``store``/``offline`` follow the engine's durability contract (see
    :mod:`repro.experiments.store`): with a store the rows land
    durably; offline they are served from it without simulation.
    """
    versions = {
        "origin": "insecure",
        "secure": "ct-scalar",
        "secure with avx": "ct",
    }
    results = run_many(
        [
            RunSpec("histogram", bins, scheme, seed)
            for scheme in versions.values()
        ],
        store=store,
        offline=offline,
    )
    out: Dict[str, Dict[str, float]] = {}
    for label, result in zip(versions, results):
        counters = result.counters
        out[label] = {
            "L1d ref": counters["l1d_refs"],
            "L1i ref": counters["l1i_refs"],
            "LL misses": counters["llc_miss_total"],
        }
    return out


def render_motivation_profile(bins: int = 10000, seed: int = 1) -> str:
    data = motivation_profile(bins, seed)
    rows = [
        (label, row["L1d ref"], row["L1i ref"], row["LL misses"])
        for label, row in data.items()
    ]
    return format_table(
        ["Input size", "L1d ref", "L1i ref", "LL misses"],
        rows,
        title=f"Sec. 3.1 profile table (histogram, {bins} bins)",
    )
