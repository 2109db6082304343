"""Permutation inversion (Fig. 7c; Table 2).

``a[b[i]] = i``: inverting a secret permutation ``b``.  The store's
address is ``b[i]`` — a secret value — so its dataflow linearization
set is the whole output array ``a`` (O(length_of_array), Table 2:
"Permutation a[b[i]] = i exposes b[i]").

The reads of ``b[i]`` walk public addresses; only the store is
linearized.  A fixed number of permutation entries
(:data:`N_ENTRIES`) is processed per run — the paper's overhead is a
per-element ratio, so this only bounds simulation time; the *array*
(and hence the DS) has the full swept size.
"""

from __future__ import annotations

from typing import Dict, List

from repro import params
from repro.ct.context import MitigationContext
from repro.workloads.base import make_rng

#: Permutation entries processed per run (simulation-budget knob).
N_ENTRIES = 56

#: Leading entries are warm-up (counters reset afterwards; see
#: :mod:`repro.workloads.histogram` for the rationale).
N_WARMUP = 8

#: ALU work per element (index arithmetic, loop control).
ELEM_INSTS = 4


def generate_permutation(size: int, seed: int) -> List[int]:
    """First :data:`N_ENTRIES` images of a secret permutation of [0, size)."""
    rng = make_rng(size, seed)
    return rng.sample(range(size), min(N_ENTRIES, size))


def run(ctx: MitigationContext, size: int, seed: int) -> Dict[int, int]:
    """Invert the permutation prefix; returns {b[i]: i}."""
    machine = ctx.machine
    b = generate_permutation(size, seed)
    b_base = machine.allocator.alloc_words(len(b), "b")
    a_base = machine.allocator.alloc_words(size, "a")
    ctx.plain_store_words([b_base + 4 * i for i in range(len(b))], b)
    # Zero-initialize the output array (warms the DS for every scheme).
    ctx.plain_store_words(
        [a_base + 4 * j for j in range(size)], [0] * size
    )
    ds_a = ctx.register_ds(a_base, size * params.WORD_SIZE, "a")

    for i in range(len(b)):
        if i == N_WARMUP:
            machine.reset_stats()
        ctx.execute(ELEM_INSTS)
        target = ctx.plain_load(b_base + 4 * i)
        ctx.store(ds_a, a_base + 4 * target, i)

    return {
        v: machine.memory.read_word(a_base + 4 * v) for v in sorted(b)
    }


def reference(size: int, seed: int) -> Dict[int, int]:
    """Golden model: the inverse mapping of the permutation prefix."""
    b = generate_permutation(size, seed)
    return {v: i for i, v in enumerate(b)}
