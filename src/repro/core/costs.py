"""Instruction-cost model for the mitigation libraries.

The paper measures execution time on gem5's out-of-order core; every
figure reports *ratios* to an insecure baseline.  We replace the
pipeline with a linear cost model: each memory access pays the hit
latency of the level it lands in (Table 1), and each bookkeeping
instruction pays ``cpi`` cycles.  What distinguishes the mitigation
schemes is *how many* instructions and accesses they issue, and those
counts come from the constants below.

The constants model the x86-64 instruction sequences the respective
code generators emit (Constantine's linearized gather for software CT,
our Algorithms 2/3 for the BIA).  They were calibrated once so that
the reproduced figures land in the paper's reported ranges (Fig. 2's
~2x..~50x histogram curve, Fig. 7's overheads, Fig. 9's crypto
crossover) and are recorded in EXPERIMENTS.md; the *shape* of every
result is insensitive to modest changes in them because the dominant
term for large DSs is the per-line sweep that BIA eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


def check_whole(
    name: str, value, positive: bool = True, unit: str = "cycles"
) -> None:
    """Reject a cost or count that is not a whole number (> 0 or >= 0).

    The cycle model is integral (Table 1 hit latencies, one cycle per
    instruction, whole instruction counts), so ``cycles`` only ever
    adds whole numbers: every partial sum is exact below 2**53, and any
    regrouping of the additions gives the same float.  Integral floats
    such as ``2.0`` pass; ``0.5``, ``nan`` and ``inf`` do not.
    """
    whole = isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    )
    if not whole or value < (1 if positive else 0):
        kind = "positive" if positive else "non-negative"
        raise ConfigurationError(
            f"{name} must be a {kind} whole number of {unit}: {value!r}"
        )


@dataclass(frozen=True)
class CostModel:
    """Instruction counts charged by the mitigation layers.

    Attributes
    ----------
    cpi:
        Cycles per bookkeeping instruction (1.0 = simple in-order ALU);
        a positive whole number, int or integral float.
    ct_visit_insts:
        Fixed per-DS-visit overhead of the software-CT sweep (loop
        setup, base/bound registers).
    ct_elem_insts:
        Per-DS-line cost of the scalar software-CT sweep: address
        increment, load, compare, conditional move.
    ct_simd_elem_insts:
        Per-DS-line cost with AVX2 vectorization (Fig. 2's "avx" line
        and the default for the CT baseline in Figs. 7-9, matching the
        paper's use of Constantine's avx2 support).
    ct_store_elem_extra_insts:
        Extra per-line cost of a linearized *store* (read-modify-write:
        select then write back every line).
    bia_call_insts:
        Fixed per-call overhead of Algorithms 2/3: DS handle fetch,
        page-loop setup, return-value select.
    bia_page_insts:
        Per-page cost: address regeneration (line 4/5), Bitmask fetch,
        CTLoad issue + bitmap AND (line 7/10), loop control.
    bia_fetch_elem_insts:
        Per-fetched-line cost of generateAddrs + the fetch-loop body
        (lines 9-11 / 12-15).
    bia_store_page_extra_insts:
        Extra per-page cost of Algorithm 3 over Algorithm 2 (the
        CTStore issue and the st_data select on line 8).
    gather_elem_insts:
        Per-requested-word select cost when servicing a batched gather
        (one DS sweep answering many loads; both schemes pay it).
    bia_ds_setup_insts / bia_ds_setup_per_page_insts:
        One-time per-DS preprocessing of the BIA algorithms (grouping
        the DS into pages and building the per-page Bitmasks,
        Sec. 5.1) — software CT needs none of this (Constantine bakes
        the sweep bounds in at compile time), which is part of why CT
        stays slightly ahead on tiny crypto DSs (Sec. 7.3.3).
    ct_gather_repeat_latency:
        Cycles per line charged for the 2nd..k-th DS sweeps of a
        software-CT gather of k requested cache lines.  The repeated
        sweeps stream over L1-resident data and pipeline at ~1
        line/cycle on the avx2 path; they repeat the first sweep's
        access pattern exactly, so they are charged to the counters
        without re-walking the cache model (identical state effect).
        A non-negative whole number.

    Every cycle cost and instruction count is a whole number (see
    :func:`check_whole`), so the machine charges each batch of accesses
    as one sum.
    """

    cpi: float = 1.0
    ct_visit_insts: int = 6
    ct_elem_insts: int = 4
    ct_simd_elem_insts: int = 1
    ct_store_elem_extra_insts: int = 3
    bia_call_insts: int = 60
    bia_page_insts: int = 10
    bia_fetch_elem_insts: int = 4
    bia_store_page_extra_insts: int = 8
    gather_elem_insts: int = 2
    bia_ds_setup_insts: int = 32
    bia_ds_setup_per_page_insts: int = 2
    ct_gather_repeat_latency: float = 1.0

    def __post_init__(self) -> None:
        check_whole("cpi", self.cpi)
        check_whole(
            "ct_gather_repeat_latency", self.ct_gather_repeat_latency, False
        )
        for name in (
            "ct_visit_insts",
            "ct_elem_insts",
            "ct_simd_elem_insts",
            "ct_store_elem_extra_insts",
            "bia_call_insts",
            "bia_page_insts",
            "bia_fetch_elem_insts",
            "bia_store_page_extra_insts",
            "gather_elem_insts",
            "bia_ds_setup_insts",
            "bia_ds_setup_per_page_insts",
        ):
            check_whole(name, getattr(self, name), False, "instructions")


DEFAULT_COSTS = CostModel()
