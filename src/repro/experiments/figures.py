"""Figure reproductions: one generator per figure of the paper.

Every generator returns plain data structures (dicts keyed the way the
figure's axes are) plus a ``render_*`` companion that prints the same
rows/series the paper plots.  The benchmark harness under
``benchmarks/`` calls these with the paper's full parameter sweeps;
the test suite calls them with reduced sizes.

From-store rebuilds: every ``run_many``-backed generator accepts
``store=`` / ``offline=`` (defaulting to the process-wide engine
settings, i.e. whatever :func:`repro.experiments.store.served_from` or
``configure(store=...)`` installed), so a figure can be rebuilt
offline from a run directory without re-simulating.  ``figure10`` is
the exception: it profiles per-set access counts on a live machine and
never goes through the engine, so it has no from-store path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import FIG7_SCHEMES
from repro.experiments.parallel import _UNSET, RunSpec, run_many
from repro.experiments.report import format_table
from repro.experiments.runner import overhead
from repro.workloads import WORKLOADS

# ---------------------------------------------------------------------------
# Figure 2 — histogram overhead vs DS size under software CT
# ---------------------------------------------------------------------------

FIG2_SIZES = (1000, 2000, 4000, 6000, 8000, 10000)


def figure2(
    sizes: Sequence[int] = FIG2_SIZES, seed: int = 1,
    store=_UNSET, offline=_UNSET,
) -> Dict[int, Dict[str, float]]:
    """Software-CT overhead growth with the dataflow linearization set.

    Returns {bins: {"ct-scalar": overhead, "ct": overhead}} — the
    paper's two curves (plain and avx2-optimized Constantine).
    """
    schemes = ("insecure", "ct-scalar", "ct")
    results = run_many(
        [
            RunSpec("histogram", size, scheme, seed)
            for size in sizes
            for scheme in schemes
        ],
        store=store,
        offline=offline,
    )
    it = iter(results)
    out: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        base = next(it)
        out[size] = {
            scheme: overhead(next(it), base) for scheme in schemes[1:]
        }
    return out


def render_figure2(sizes: Sequence[int] = FIG2_SIZES, seed: int = 1) -> str:
    data = figure2(sizes, seed)
    rows = [
        (f"hist_{s}", data[s]["ct-scalar"], data[s]["ct"]) for s in sizes
    ]
    return format_table(
        ["workload", "CT overhead (scalar)", "CT overhead (avx)"],
        rows,
        title="Figure 2: histogram overhead vs dataflow linearization set size",
    )


# ---------------------------------------------------------------------------
# Figure 7 — execution-time overhead of L1d BIA / L2 BIA / CT
# ---------------------------------------------------------------------------


def figure7(
    workload: str,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 1,
    store=_UNSET,
    offline=_UNSET,
) -> Dict[str, Dict[str, float]]:
    """One Fig. 7 panel: {label: {scheme: overhead}} for a workload."""
    descriptor = WORKLOADS[workload]
    sizes = tuple(sizes) if sizes is not None else descriptor.sizes
    schemes = ("insecure",) + tuple(FIG7_SCHEMES)
    results = run_many(
        [
            RunSpec(workload, size, scheme, seed)
            for size in sizes
            for scheme in schemes
        ],
        store=store,
        offline=offline,
    )
    it = iter(results)
    out: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        base = next(it)
        out[descriptor.label(size)] = {
            scheme: overhead(next(it), base) for scheme in schemes[1:]
        }
    return out


def render_figure7(
    workload: str, sizes: Optional[Sequence[int]] = None, seed: int = 1
) -> str:
    panel = {
        "dijkstra": "a",
        "histogram": "b",
        "permutation": "c",
        "binary_search": "d",
        "heappop": "e",
    }.get(workload, "?")
    data = figure7(workload, sizes, seed)
    rows = [
        (label, row["bia-l1d"], row["bia-l2"], row["ct"])
        for label, row in data.items()
    ]
    return format_table(
        ["workload", "L1d", "L2", "CT"],
        rows,
        title=f"Figure 7({panel}): {workload} execution-time overhead",
    )


# ---------------------------------------------------------------------------
# Figure 8 — where the gain comes from (CT / L1d-BIA ratios, dijkstra)
# ---------------------------------------------------------------------------

FIG8_METRICS = (
    ("insts num", "insts"),
    ("icache", "l1i_refs"),
    ("dcache", "l1d_refs"),
    ("dram", "dram_accesses"),
    ("exec. time", "cycles"),
)


def figure8(
    sizes: Optional[Sequence[int]] = None, seed: int = 1,
    store=_UNSET, offline=_UNSET,
) -> Dict[str, Dict[str, float]]:
    """Overhead-reduction ratios of CT over L1d BIA for dijkstra.

    Returns {label: {metric: ratio}}.  The paper's finding: the
    instruction/icache/dcache ratios track the execution-time ratio
    while the DRAM ratio stays ~1 (the win is not about DRAM).
    """
    descriptor = WORKLOADS["dijkstra"]
    sizes = tuple(sizes) if sizes is not None else descriptor.sizes
    results = run_many(
        [
            RunSpec("dijkstra", size, scheme, seed)
            for size in sizes
            for scheme in ("ct", "bia-l1d")
        ],
        store=store,
        offline=offline,
    )
    it = iter(results)
    out: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        ct = next(it)
        bia = next(it)
        ratios = {}
        for label, key in FIG8_METRICS:
            numer, denom = ct.counters[key], bia.counters[key]
            if denom:
                ratios[label] = numer / denom
            else:
                # equal (absent) traffic ratios as 1.0 — steady state
                # has no DRAM traffic for either scheme when the DS
                # fits in the LLC, which IS the paper's "dram ~= 1".
                ratios[label] = 1.0 if not numer else math.inf
        out[descriptor.label(size)] = ratios
    return out


def render_figure8(
    sizes: Optional[Sequence[int]] = None, seed: int = 1
) -> str:
    data = figure8(sizes, seed)
    headers = ["workload"] + [label for label, _ in FIG8_METRICS]
    rows = [
        [label] + [row[m] for m, _ in FIG8_METRICS]
        for label, row in data.items()
    ]
    return format_table(
        headers,
        rows,
        title="Figure 8: overhead reduction ratio (CT / L1d BIA), dijkstra",
    )


# ---------------------------------------------------------------------------
# Figure 9 — crypto libraries
# ---------------------------------------------------------------------------

FIG9_CIPHERS = ("AES", "ARC2", "ARC4", "Blowfish", "CAST", "DES", "DES3", "XOR")


def figure9(
    ciphers: Sequence[str] = FIG9_CIPHERS, seed: int = 1,
    store=_UNSET, offline=_UNSET,
) -> Dict[str, Dict[str, float]]:
    """Crypto-library overheads: {cipher: {"bia-l1d": x, "ct": y}}."""
    schemes = ("insecure", "bia-l1d", "ct")
    results = run_many(
        [
            RunSpec(cipher, 0, scheme, seed, kind="crypto")
            for cipher in ciphers
            for scheme in schemes
        ],
        store=store,
        offline=offline,
    )
    it = iter(results)
    out: Dict[str, Dict[str, float]] = {}
    for cipher in ciphers:
        base = next(it)
        out[cipher] = {
            scheme: overhead(next(it), base) for scheme in schemes[1:]
        }
    return out


def render_figure9(
    ciphers: Sequence[str] = FIG9_CIPHERS, seed: int = 1
) -> str:
    data = figure9(ciphers, seed)
    rows = [(c, data[c]["bia-l1d"], data[c]["ct"]) for c in ciphers]
    return format_table(
        ["cipher", "L1d", "CT"],
        rows,
        title="Figure 9: crypto library execution-time overhead",
    )


# ---------------------------------------------------------------------------
# Figure 10 — per-cache-set access counts across secrets
# ---------------------------------------------------------------------------

#: Number of consecutive sets shown (the paper's window is 320-325).
FIG10_WINDOW = 6


def _most_varying_window(
    runs: List[Dict[int, int]], width: int
) -> Tuple[int, ...]:
    """The ``width`` consecutive sets whose counts vary most across runs.

    The paper shows L2 sets 320-325 because that is where the hist_1k
    *bins* happened to live on their layout; the equivalent window on
    ours is wherever the secret-indexed traffic lands, which is
    exactly where the per-secret counts differ.  Override via
    ``sets=`` to pin specific indices instead.
    """
    all_sets = sorted({s for run in runs for s in run})
    if not all_sets:
        return tuple(range(width))

    def spread(s: int) -> int:
        counts = [run.get(s, 0) for run in runs]
        return max(counts) - min(counts)

    best_start = max(
        all_sets, key=lambda s: sum(spread(s + i) for i in range(width))
    )
    return tuple(range(best_start, best_start + width))


def figure10(
    bins: int = 1000,
    n_secrets: int = 10,
    sets: Optional[Sequence[int]] = None,
    level: str = "L1D",
    scheme_secure: str = "bia-l1d",
) -> Dict[str, object]:
    """Per-set access counts, hist_1k, across random secret inputs.

    Returns ``{"sets": [...], "insecure": [(seed, counts)...],
    "secure": [...]}``.  Expected: insecure rows vary across seeds,
    secure rows are all identical (Fig. 10a vs 10b).  The default
    level is the L1d (where a warm victim's accesses land); the
    paper's published window is its L2's sets 320-325 — pass
    ``level="L2"``/``sets=range(320, 326)`` to pin that view.
    """
    from repro.experiments.config import build_context
    from repro.workloads import histogram as _histogram

    raw: Dict[str, List[Dict[int, int]]] = {"insecure": [], "secure": []}
    for key, scheme in (("insecure", "insecure"), ("secure", scheme_secure)):
        for seed in range(1, n_secrets + 1):
            ctx = build_context(scheme)
            # Whole-program profile (no warm-up reset): the published
            # figure counts every access of the run, so the mitigated
            # rows show equal NON-zero counts rather than empty ones.
            _histogram.run(ctx, bins, seed, reset_warmup=False)
            raw[key].append(
                dict(ctx.machine.hierarchy.level(level).stats.set_accesses)
            )
    chosen: Tuple[int, ...] = (
        tuple(sets)
        if sets is not None
        else _most_varying_window(raw["insecure"], FIG10_WINDOW)
    )
    out: Dict[str, object] = {"sets": list(chosen)}
    for key in ("insecure", "secure"):
        out[key] = [
            (seed, [run.get(s, 0) for s in chosen])
            for seed, run in enumerate(raw[key], start=1)
        ]
    return out


def render_figure10(
    bins: int = 1000,
    n_secrets: int = 10,
    sets: Optional[Sequence[int]] = None,
    level: str = "L1D",
) -> str:
    data = figure10(bins, n_secrets, sets, level)
    chosen = data["sets"]
    rows = []
    for key in ("insecure", "secure"):
        for seed, counts in data[key]:
            rows.append([key, seed] + list(counts))
    return format_table(
        ["version", "secret"] + [f"set {s}" for s in chosen],
        rows,
        title=(
            f"Figure 10: accesses to {level} sets "
            f"{chosen[0]}-{chosen[-1]}, hist_{bins // 1000}k"
        ),
    )


# ---------------------------------------------------------------------------
# Headline: ~7x overhead reduction
# ---------------------------------------------------------------------------


def headline_reduction(
    workloads: Optional[Sequence[str]] = None,
    seed: int = 1,
    store=_UNSET,
    offline=_UNSET,
) -> Dict[str, float]:
    """Geometric-mean CT/L1d-BIA overhead-reduction per workload + overall.

    The paper's abstract: "about 7x reduction in performance overheads
    over the state-of-the-art approach".  Overhead here is (mitigated
    - 1) relative cost; the reduction ratio compares CT's overhead to
    L1d BIA's at each size and averages geometrically.
    """
    names = tuple(workloads) if workloads is not None else tuple(WORKLOADS)
    per_workload: Dict[str, float] = {}
    all_ratios: List[float] = []
    for name in names:
        data = figure7(name, seed=seed, store=store, offline=offline)
        ratios = [
            row["ct"] / row["bia-l1d"] for row in data.values() if row["bia-l1d"]
        ]
        per_workload[name] = _geomean(ratios)
        all_ratios.extend(ratios)
    per_workload["overall"] = _geomean(all_ratios)
    return per_workload


def _geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))
