"""Histogram — the paper's running example (Sec. 2.3, 3.1; Figs. 2, 7b, 10).

Each input value selects a bin; the update ``out[t] = out[t] + 1`` is
the secret-dependent access, whose dataflow linearization set is the
whole ``out`` array — so the DS grows with the bin count, which is the
size parameter the paper sweeps (1k..10k bins).

The original program::

    for i in range(SIZE):
        v = in_[i]
        t = (v if v > 0 else -v) % SIZE      # branch on secret value
        out[t] = out[t] + 1                  # secret-dependent access

Control flow is linearized with a branchless absolute value; the
read-modify-write goes through ``ctx.rmw`` so each mitigation applies
its own data-flow linearization.  The number of *input* elements is
fixed (:data:`N_INPUTS`) independent of the bin count: the overhead
ratios the paper reports are per-element and do not depend on it,
while simulation time does.
"""

from __future__ import annotations

from typing import List

from repro import params
from repro.ct import cfl
from repro.ct.context import MitigationContext
from repro.workloads.base import make_rng, randints

#: Secret input elements processed per run (simulation-budget knob).
N_INPUTS = 56

#: Leading elements treated as warm-up: processed normally, but the
#: machine's counters are reset afterwards so the measured overheads
#: reflect steady state (the paper's runs process thousands of
#: elements, so first-touch DRAM fills are noise there; with our short
#: runs they would dominate every scheme equally and compress ratios).
N_WARMUP = 8

#: ALU cost of computing the bin index: sign handling + integer modulo
#: (divides are ~20+ cycles on real cores; cachegrind counts the insts).
BIN_CALC_INSTS = 24


def generate_inputs(
    size: int, seed: int, n_inputs: int = None
) -> List[int]:
    """The secret input array: values in [-4*size, 4*size].

    ``n_inputs`` defaults to the module's :data:`N_INPUTS` at call
    time, so tests can scale the run length by patching the module
    attribute (the overhead-stability check in the test suite).
    """
    if n_inputs is None:
        n_inputs = N_INPUTS
    return randints(make_rng(size, seed), n_inputs, -4 * size, 4 * size)


def run(
    ctx: MitigationContext,
    size: int,
    seed: int,
    reset_warmup: bool = True,
) -> List[int]:
    """Run histogram with ``size`` bins; returns the bin counts.

    ``reset_warmup=False`` keeps the setup/warm-up phase in the
    counters (whole-program profiling, as the paper's Fig. 10 and the
    cachegrind table measure); the default excludes it so overhead
    ratios reflect steady state.
    """
    machine = ctx.machine
    values = generate_inputs(size, seed)
    in_base = machine.allocator.alloc_words(len(values), "in")
    out_base = machine.allocator.alloc_words(size, "out")
    ctx.plain_store_words(
        [in_base + 4 * i for i in range(len(values))],
        [v & 0xFFFFFFFF for v in values],
    )
    # The program zero-initializes its bins; this also warms the DS for
    # every scheme equally (part of the pre-measurement warm-up).
    ctx.plain_store_words(
        [out_base + 4 * j for j in range(size)], [0] * size
    )
    ds_out = ctx.register_ds(out_base, size * params.WORD_SIZE, name="out")

    for i in range(len(values)):
        if i == N_WARMUP and reset_warmup:
            machine.reset_stats()
        raw = ctx.plain_load(in_base + 4 * i)
        v = raw - (1 << 32) if raw >= (1 << 31) else raw
        ctx.execute(BIN_CALC_INSTS)
        t = cfl.ct_abs(machine, v) % size
        ctx.rmw(ds_out, out_base + 4 * t, lambda p: p + 1)

    return [machine.memory.read_word(out_base + 4 * j) for j in range(size)]


def reference(size: int, seed: int) -> List[int]:
    """Golden model (no simulator)."""
    out = [0] * size
    for v in generate_inputs(size, seed):
        out[abs(v) % size] += 1
    return out
