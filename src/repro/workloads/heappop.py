"""Heap pop (Fig. 7e; Table 2).

Popping the maximum from a binary max-heap: each sift-down step
compares the two children and descends along the larger one, so "the
heap adjusting procedure brings different access patterns with
different internal data values" (Table 2).  The DS of every child
read and swap write is the whole heap array.

The constant-time formulation descends a *fixed* ceil(log2(n)) number
of levels with predicated swaps (identity writes once the heap
property holds), following the larger-child path; the functional
result is identical to the early-exit version.  The insecure version
runs the same fixed-depth loop with plain accesses — only the
mitigation differs between contexts.

:data:`N_POPS` elements are popped per run.
"""

from __future__ import annotations

from typing import List

from repro import params
from repro.ct import cfl
from repro.ct.context import MitigationContext
from repro.workloads.base import make_rng, randints

#: Elements popped per run (simulation-budget knob).
N_POPS = 9

#: Leading pops are warm-up (counters reset afterwards; see
#: :mod:`repro.workloads.histogram` for the rationale).
N_WARMUP = 1

#: ALU work per sift-down level (index math, compares, cmovs).
LEVEL_INSTS = 8


def generate_values(size: int, seed: int) -> List[int]:
    """The secret heap contents."""
    return randints(make_rng(size, seed), size, 0, 1 << 30)


def _build_heap(values: List[int]) -> List[int]:
    """Textbook heapify (public setup phase, done at input-load time).

    Each sift-down holds the sifted value and moves larger children up
    into the hole, writing the value once where it stops: the array a
    pairwise swap per level leaves.  The right child wins only when it
    is strictly larger, so ties go to the left one.
    """
    heap = list(values)
    n = len(heap)
    for start in range(n // 2 - 1, -1, -1):
        item = heap[start]
        i = start
        child = 2 * i + 1
        while child < n:
            right = child + 1
            if right < n and heap[right] > heap[child]:
                child = right
            if heap[child] <= item:
                break
            heap[i] = heap[child]
            i = child
            child = 2 * i + 1
        heap[i] = item
    return heap


def run(ctx: MitigationContext, size: int, seed: int) -> List[int]:
    """Pop :data:`N_POPS` maxima; returns them in pop order."""
    machine = ctx.machine
    heap = _build_heap(generate_values(size, seed))
    base = machine.allocator.alloc_words(size, "heap")
    # The program heapifies its data in place (warms the DS uniformly).
    ctx.plain_store_words(
        [base + 4 * i for i in range(len(heap))], heap
    )
    ds = ctx.register_ds(base, size * params.WORD_SIZE, "heap")

    levels = max((size - 1).bit_length(), 1)
    n = size
    popped: List[int] = []
    for pop_idx in range(min(N_POPS, size)):
        if pop_idx == N_WARMUP:
            machine.reset_stats()
        # Pop: root out, last element to root (public addresses).
        top = ctx.plain_load(base)
        popped.append(top)
        last = ctx.plain_load(base + 4 * (n - 1))
        ctx.plain_store(base, last)
        n -= 1
        # Fixed-depth sift-down with predicated swaps.  The sifted
        # value travels in a register (``cur``), so each level needs
        # two child loads and two (possibly identity) stores.
        i = 0
        cur = last
        for _level in range(levels):
            ctx.execute(LEVEL_INSTS)
            left, right = 2 * i + 1, 2 * i + 2
            # Clamp out-of-range children to a self-reference; the
            # addresses stay inside the DS and the swap degenerates to
            # an identity write.
            left_ok = left < n
            right_ok = right < n
            li = left if left_ok else i
            ri = right if right_ok else i
            # Both loads are issued unconditionally (a data-dependent
            # skip would leak); a clamped child reads position i,
            # which always holds ``cur``.
            lv = ctx.load(ds, base + 4 * li)
            rv = ctx.load(ds, base + 4 * ri)
            go_right = right_ok and rv > lv
            ci = cfl.ct_select(machine, go_right, ri, li)
            cv = cfl.ct_select(machine, go_right, rv, lv)
            swap = ci != i and cv > cur
            new_parent = cfl.ct_select(machine, swap, cv, cur)
            new_child = cfl.ct_select(machine, swap, cur, cv)
            ctx.store(ds, base + 4 * i, new_parent)
            ctx.store(ds, base + 4 * ci, new_child)
            i = cfl.ct_select(machine, swap, ci, i)
    return popped


def reference(size: int, seed: int) -> List[int]:
    """Golden model: the N_POPS largest values, descending."""
    values = generate_values(size, seed)
    return sorted(values, reverse=True)[: min(N_POPS, size)]
