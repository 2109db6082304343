"""Batched Dijkstra == its per-vertex scalar loop, observably.

``repro.workloads.dijkstra`` issues its public min-scan and relaxation
through the batched kernels (``plain_load_words`` and the per-element
``plain_rmw_words``) and charges each batch's ALU work as one
``execute``.  :func:`scalar_run` below keeps the per-vertex loop those
batches replace; both run on twin contexts under every scheme, a
silent-store machine (where every improved distance must really be
stored), ``cpi=2.0`` and a cache small enough to miss, and everything a
figure or an attacker could read must agree.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro import params
from repro.attacks.observer import ObservableTraceRecorder
from repro.core.costs import CostModel
from repro.ct import cfl
from repro.ct.context import MitigationContext
from repro.experiments.config import SCHEMES, build_context, scheme_config
from repro.workloads import dijkstra
from repro.workloads.dijkstra import INF, RELAX_INSTS, SCAN_INSTS


def scalar_run(ctx: MitigationContext, size: int, seed: int) -> List[int]:
    """Dijkstra with one ``plain_load``/``plain_store`` per access."""
    machine = ctx.machine
    weights = dijkstra.generate_weights(size, seed)
    adj_base = machine.allocator.alloc_words(size * size, "adj")
    dist_base = machine.allocator.alloc_words(size, "dist")
    visited_base = machine.allocator.alloc_words(size, "visited")
    ctx.plain_store_words(
        [adj_base + 4 * k for k in range(size * size)],
        [w for row in weights for w in row],
    )
    ds_adj = ctx.register_ds(adj_base, size * size * params.WORD_SIZE, "adj")
    ds_dist = ctx.register_ds(dist_base, size * params.WORD_SIZE, "dist")
    ds_visited = ctx.register_ds(visited_base, size * params.WORD_SIZE, "visited")
    init_addrs: List[int] = []
    init_vals: List[int] = []
    for v in range(size):
        init_addrs += (dist_base + 4 * v, visited_base + 4 * v)
        init_vals += (INF if v else 0, 0)
    ctx.plain_store_words(init_addrs, init_vals)
    for iteration in range(size):
        if iteration == 1:
            machine.reset_stats()
        best_u, best_d = 0, INF + 1
        for v in range(size):
            ctx.execute(SCAN_INSTS)
            d = ctx.plain_load(dist_base + 4 * v)
            seen = ctx.plain_load(visited_base + 4 * v)
            candidate = not seen and d < best_d
            best_u = cfl.ct_select(machine, candidate, v, best_u)
            best_d = cfl.ct_select(machine, candidate, d, best_d)
        u = best_u
        ctx.store(ds_visited, visited_base + 4 * u, 1)
        du = ctx.load(ds_dist, dist_base + 4 * u)
        row_base = adj_base + 4 * size * u
        row = ctx.gather(ds_adj, [row_base + 4 * j for j in range(size)])
        for v in range(size):
            ctx.execute(RELAX_INSTS)
            old = ctx.plain_load(dist_base + 4 * v)
            alt = du + row[v] if row[v] else INF
            better = v != u and alt < old
            ctx.plain_store(
                dist_base + 4 * v, cfl.ct_select(machine, better, alt, old)
            )
    return [machine.memory.read_word(dist_base + 4 * v) for v in range(size)]


def _config(scheme: str, variant: str):
    if variant == "cpi2":
        return dataclasses.replace(scheme_config(scheme), costs=CostModel(cpi=2.0))
    config = scheme_config(scheme)
    if variant.startswith("silent"):
        config = dataclasses.replace(config, silent_stores=True)
    if variant.endswith("small-caches"):
        # small enough that dist[] lines are evicted and refetched clean,
        # so a squashed store and a real one leave different dirty bits
        config = dataclasses.replace(
            config, l1d_size=1024, l1d_assoc=2, l2_size=2048, l2_assoc=4,
            llc_size=2048, llc_assoc=2,
        )
    return config


def _observe(ctx):
    recorder = ObservableTraceRecorder()
    for cache in ctx.machine.hierarchy.levels:
        recorder.attach(cache)
    return recorder


def _image(machine):
    return {
        page: machine.memory.read(page * params.PAGE_SIZE, params.PAGE_SIZE)
        for page in machine.memory.touched_pages()
    }


@pytest.mark.parametrize(
    "variant",
    ["table1", "silent-stores", "cpi2", "small-caches", "silent-small-caches"],
)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_matches_scalar_loop(scheme, variant):
    config = _config(scheme, variant)
    ctx_a = build_context(scheme, config=config)
    ctx_b = build_context(scheme, config=config)
    rec_a, rec_b = _observe(ctx_a), _observe(ctx_b)
    size, seed = 20, 3
    got = dijkstra.run(ctx_a, size, seed)
    want = scalar_run(ctx_b, size, seed)
    assert got == want == dijkstra.reference(size, seed)
    ma, mb = ctx_a.machine, ctx_b.machine
    assert ma.snapshot() == mb.snapshot()
    assert ma.stats.cycles == mb.stats.cycles  # bit-identical, not approx
    assert rec_a.events == rec_b.events
    assert len(rec_a.events) > 0
    for ca, cb in zip(ma.hierarchy.levels, mb.hierarchy.levels):
        assert ca.occupied_sets() == cb.occupied_sets(), ca.name
        assert ca.stats.set_accesses == cb.stats.set_accesses, ca.name
    assert ma.slice_trace == mb.slice_trace
    assert _image(ma) == _image(mb)
    if variant.endswith("small-caches"):  # the measured phase misses too
        assert sum(c.stats.misses for c in ma.hierarchy.levels) > 0
