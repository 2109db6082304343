"""Dijkstra single-source shortest paths (Fig. 7a; Table 2).

The classic O(V^2) formulation over a dense weight matrix.  The secret
is the graph itself (the weights): in every iteration the algorithm
selects the unvisited vertex ``u`` with minimum tentative distance and
relaxes its outgoing edges.  Leakage (Table 2): "access to the
not-yet-selected vertex with minimum distance ... leaks graph
structure"; the DS of the row access is the whole V*V matrix, O(V^2).

Secret-dependent accesses per iteration:

* ``dist[u]``      — load with DS = the ``dist`` array,
* ``visited[u]``   — store with DS = the ``visited`` array,
* ``adj[u][:]``    — a V-word row gather with DS = the whole matrix
  (a code generator emits one linearization pass for the row read;
  both mitigations batch it through ``ctx.gather``).

The min-scan over ``dist``/``visited`` reads *all* vertices at public
addresses (only the comparison outcomes are secret, handled
branchlessly), so it needs no linearization — in the insecure version
too, matching the original benchmark's structure.  The scan and the
relaxation issue the same access stream as a per-vertex loop through
the batched kernels (``plain_load_words``, ``plain_rmw_words``), and
charge each batch's per-vertex ALU work and ``ct_select``s as one
``execute`` (see ``tests/workloads/test_dijkstra_batched.py``).

Sizes: V in {32, 64, 96, 128}; at V=128 the 64 KiB matrix equals the
L1d capacity, the paper's L1d-BIA self-eviction case (Sec. 7.3.2).
"""

from __future__ import annotations

from typing import List

from repro import params
from repro.ct.context import MitigationContext
from repro.workloads.base import make_rng, randints

#: "Infinite" distance (fits a u32 after any number of relaxations).
INF = 1 << 28

#: ALU work per min-scan candidate (visited check + compare + cmov).
SCAN_INSTS = 3

#: ALU work per relaxation (add + compare + cmov).
RELAX_INSTS = 4


def generate_weights(size: int, seed: int) -> List[List[int]]:
    """Secret dense weight matrix, weights in [1, 100].

    The off-diagonal weights are drawn in row-major order; the zero
    diagonal draws nothing.
    """
    draws = randints(make_rng(size, seed), size * (size - 1), 1, 100)
    rows = []
    for i in range(size):
        row = draws[i * (size - 1) : (i + 1) * (size - 1)]
        row.insert(i, 0)
        rows.append(row)
    return rows


def run(ctx: MitigationContext, size: int, seed: int) -> List[int]:
    """Dijkstra from vertex 0 on a ``size``-vertex dense graph."""
    machine = ctx.machine
    weights = generate_weights(size, seed)
    adj_base = machine.allocator.alloc_words(size * size, "adj")
    dist_base = machine.allocator.alloc_words(size, "dist")
    visited_base = machine.allocator.alloc_words(size, "visited")
    # The program builds its weight matrix (warms the DS uniformly).
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

    dist_addrs = [dist_base + 4 * v for v in range(size)]
    # (dist[v], visited[v]) per candidate, in the scan's access order
    scan_addrs = [
        a for v in range(size) for a in (dist_addrs[v], visited_base + 4 * v)
    ]
    for iteration in range(size):
        if iteration == 1:
            # First iteration is warm-up (first-touch fills of the
            # matrix); counters reset so measured overheads reflect
            # steady state, like the paper's full-length runs.
            machine.reset_stats()
        # Min-scan: public address pattern, branchless comparisons
        # (SCAN_INSTS plus two ct_selects per candidate, one fold).
        ctx.execute(size * (SCAN_INSTS + 2))
        scan = ctx.plain_load_words(scan_addrs)
        best_u, best_d = 0, INF + 1
        for v, (d, seen) in enumerate(zip(scan[::2], scan[1::2])):
            if not seen and d < best_d:
                best_u, best_d = v, d
        u = best_u
        # Secret-dependent: mark u visited, read dist[u], gather row u.
        ctx.store(ds_visited, visited_base + 4 * u, 1)
        du = ctx.load(ds_dist, dist_base + 4 * u)
        row_base = adj_base + 4 * size * u
        row = ctx.gather(ds_adj, [row_base + 4 * j for j in range(size)])

        def relax(v: int, old: int) -> int:
            alt = du + row[v] if row[v] else INF
            return alt if v != u and alt < old else old

        # Relaxation: public store pattern (every dist[v] rewritten),
        # RELAX_INSTS plus one ct_select per vertex, one fold.
        ctx.execute(size * (RELAX_INSTS + 1))
        ctx.plain_rmw_words(dist_addrs, relax)

    return [machine.memory.read_word(dist_base + 4 * v) for v in range(size)]


def reference(size: int, seed: int) -> List[int]:
    """Golden model: textbook Dijkstra on the same generated graph."""
    weights = generate_weights(size, seed)
    dist = [INF] * size
    dist[0] = 0
    visited = [False] * size
    for _ in range(size):
        u = min(
            (v for v in range(size) if not visited[v]),
            key=dist.__getitem__,
            default=0,
        )
        visited[u] = True
        for v in range(size):
            w = weights[u][v]
            if w and v != u and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    return dist
