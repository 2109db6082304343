"""Workload protocol shared by every benchmark program.

A workload is a function ``run(ctx, size, seed)`` that

* allocates its arrays on ``ctx.machine``,
* generates its secret input deterministically from ``seed``,
* performs all *secret-dependent* accesses through ``ctx`` (so the
  mitigation can be swapped), public accesses via ``ctx.plain_*``,
  and ALU work via ``ctx.execute``,
* returns a functional result (the tests compare results across
  contexts: every mitigation must compute exactly what the insecure
  version computes).

``reference(size, seed)`` is a pure-Python golden model with no
simulator involvement, used as ground truth.

The registry at :data:`repro.workloads.WORKLOADS` maps names to
:class:`Workload` descriptors carrying the paper's size sweeps
(Fig. 7) and the ``dij_32`` / ``hist_1k`` style labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, List, Tuple

from repro.ct.context import MitigationContext


@dataclass(frozen=True)
class Workload:
    """Descriptor binding a benchmark program to its size sweep."""

    name: str
    label_prefix: str
    sizes: Tuple[int, ...]
    run: Callable[[MitigationContext, int, int], Any]
    reference: Callable[[int, int], Any]
    description: str = ""

    def label(self, size: int) -> str:
        """Paper-style label, e.g. ``dij_128`` or ``hist_2k``."""
        if size >= 1000 and size % 1000 == 0:
            return f"{self.label_prefix}_{size // 1000}k"
        return f"{self.label_prefix}_{size}"


def make_rng(size: int, seed: int) -> random.Random:
    """Deterministic per-(size, seed) input generator."""
    return random.Random(1_000_003 * seed + size)


def randints(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """``[rng.randint(lo, hi) for _ in range(n)]``, drawn in batches.

    ``randint`` runs a rejection loop: ``getrandbits(k)`` with ``k`` the
    bit length of the range's width, redrawn while the draw is not below
    the width.  The accepted draws are therefore the first ``n`` stream
    values below the width.  Each batch asks for exactly as many draws
    as values are still missing, so the helper makes the same
    ``getrandbits`` calls as the loop, returns the same values and
    leaves ``rng`` in the same state, without ``randint``'s per-value
    argument checks and call frames.
    """
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range for randints ({lo}, {hi})")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out: List[int] = []
    need = n
    while need > 0:
        kept = [lo + r for r in map(getrandbits, repeat(k, need)) if r < width]
        out += kept
        need -= len(kept)
    return out
