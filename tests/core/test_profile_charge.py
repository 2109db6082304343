"""The per-set access profile under the once-per-batch charge.

A batch charges its start level's profile once, by its owner
(``CacheHierarchy.read_lines``/``write_lines``, ``Machine.rmw_words``),
one access per word or two per read-modify-write pair, whatever hits,
misses, refused fills or prefetches happen inside it.  A software-CT
sweep's charge is not counted at all: the level's ``CacheStats`` raises
a multiplicity for the DS's cached set-index tuple and expands it when
the profile is read, cloned or loaded, and drops it at a reset.

These properties drive a batched machine and its scalar twin through
the same ops and compare every level's profile at every read.  The
twin carries a no-op per-event listener on its L1d, where every batch
here starts, so each of its batches takes the scalar loop: one counted
``access`` per load and per store, the reference the charge must equal.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.events import CacheListener
from repro.cache.set_assoc import CacheStats
from repro.core.machine import Machine, MachineConfig
from repro.ct.ds import DataflowLinearizationSet
from repro.ct.linearize import SoftwareCTContext

ARENA_LINES = 256
#: L1d of 64 lines: the first DS is larger, so its sweeps miss mid-run
L1D_SIZE, L1D_ASSOC = 4096, 4
#: (first line, lines) of the DSs a run may use; the first one is big
DS_SPANS = [(0, 96), (96, 40), (160, 9)]


class _EveryEvent(CacheListener):
    """A no-op listener that keeps the default ``on_hit_run``: on the
    L1d it sends the twin's batches to the scalar loop."""


def _machine(extras):
    """A machine with the arena allocated and filled: ``(m, base)``."""
    m = Machine(MachineConfig(
        l1d_size=L1D_SIZE, l1d_assoc=L1D_ASSOC,
        plcache=extras == "plcache", prefetcher=extras == "prefetcher",
    ))
    base = m.allocator.alloc(ARENA_LINES * 64, "arena")
    rng = random.Random(7)
    for i in range(ARENA_LINES):
        m.memory.write_word(base + 64 * i, rng.randrange(1 << 32))
    if extras == "plcache":
        # pin every way of L1d set 0 with lines outside the arena, so
        # the PLcache refuses the fills of arena lines mapping there
        l1d = m.l1d
        for k in range(l1d.assoc):
            line = base + 64 * (ARENA_LINES + k * l1d.num_sets)
            m.load_word(line)
            assert l1d.lock(line)
    return m, base


def _profiles(m):
    return {c.name: dict(c.stats.set_accesses) for c in m.hierarchy.levels}


def _words(line, word, length, stride):
    start = 16 * line + word
    return [
        (start + stride * j) % (16 * ARENA_LINES) for j in range(length)
    ]


def _apply(ctx, dss, base, op):
    """Run one op on ``ctx``'s machine."""
    m = ctx.machine
    kind = op[0]
    if kind == "ct":
        _, what, pick, elem = op
        ds = dss[pick % len(dss)]
        addr = ds.lines[elem % len(ds.lines)] + 4 * (elem % 16)
        if what == "load":
            ctx.load(ds, addr)
        elif what == "store":
            ctx.store(ds, addr, elem)
        elif what == "rmw":
            ctx.rmw(ds, addr, lambda v: (v + 3) & 0xFFFFFFFF)
        else:
            lines = ds.lines
            ctx.gather(ds, [lines[(elem + 5 * k) % len(lines)]
                            for k in range(1 + elem % 3)])
    elif kind in ("load_words", "store_words", "rmw_words"):
        addrs = [base + 4 * w for w in _words(*op[1:])]
        if kind == "load_words":
            m.load_words(addrs)
        elif kind == "store_words":
            m.store_words(addrs, list(range(len(addrs))))
        else:
            m.rmw_words(addrs, update_fn=lambda i, v: v ^ i)
    elif kind == "scalar":
        _, store, line, word = op
        addr = base + 64 * line + 4 * word
        if store:
            m.store_word(addr, line)
        else:
            m.load_word(addr)
    elif kind == "probe":
        m.attacker_load(base + 64 * op[1])
    elif kind == "reset":
        m.reset_stats()
    else:  # pragma: no cover - strategy is exhaustive
        raise AssertionError(op)


ct_ops = st.tuples(
    st.just("ct"), st.sampled_from(["load", "store", "rmw", "gather"]),
    st.integers(0, 2), st.integers(0, 95),
)
batch_ops = st.tuples(
    st.sampled_from(["load_words", "store_words", "rmw_words"]),
    st.integers(0, ARENA_LINES - 1), st.integers(0, 15),
    st.integers(1, 40), st.sampled_from([0, 1, 16]),
)
other_ops = st.one_of(
    st.tuples(st.just("scalar"), st.booleans(),
              st.integers(0, ARENA_LINES - 1), st.integers(0, 15)),
    st.tuples(st.just("probe"), st.integers(0, ARENA_LINES + 64)),
    st.sampled_from([("read",), ("reset",), ("clone",), ("load_from",),
                     ("save",), ("restore",), ("fork",)]),
)
ops_lists = st.lists(
    st.one_of(ct_ops, ct_ops, batch_ops, other_ops), min_size=1, max_size=14,
)


class TestProfileCharge:
    @given(extras=st.sampled_from(["none", "plcache", "prefetcher"]),
           n_ds=st.integers(1, 3), ops=ops_lists)
    # Always run: RMW, load and store sweeps over the DS larger than
    # the L1d (every pair misses) read through a clone, a load_from, a
    # reset, a discarded save/restore stretch and a fork, and a load
    # and an RMW sweep of one DS charged between two reads.
    @example(extras="none", n_ds=1, ops=[
        ("ct", "rmw", 0, 5), ("clone",), ("ct", "store", 0, 9),
        ("load_from",), ("read",), ("ct", "load", 0, 3), ("reset",),
        ("read",), ("ct", "store", 0, 7), ("save",), ("ct", "rmw", 0, 1),
        ("restore",), ("read",), ("fork",), ("ct", "load", 0, 4),
        ("ct", "rmw", 0, 2),
    ])
    @settings(max_examples=50, deadline=None)
    def test_profiles_match_scalar_twin_at_every_read(self, extras, n_ds,
                                                      ops):
        (ma, base), (mb, base_b) = _machine(extras), _machine(extras)
        assert base_b == base
        machines = [ma, mb]
        dss = [
            DataflowLinearizationSet.from_range(
                base + 64 * first, 64 * n, name=f"ds{k}")
            for k, (first, n) in enumerate(DS_SPANS[:n_ds])
        ]
        mb.l1d.events.subscribe(_EveryEvent())
        saved = None
        for op in ops:
            ma, mb = machines
            if op == ("read",):
                assert _profiles(ma) == _profiles(mb), op
            elif op in (("clone",), ("load_from",)):
                # each op alone: the first of them expands the source
                for ca, cb in zip(ma.hierarchy.levels, mb.hierarchy.levels):
                    if op == ("clone",):
                        copy = ca.stats.clone()
                    else:
                        copy = CacheStats()
                        copy.load_from(ca.stats)
                    assert dict(copy.set_accesses) == dict(
                        cb.stats.set_accesses), (op, ca.name)
            elif op == ("save",):
                saved = [m.save_state() for m in machines]
            elif op == ("restore",):
                if saved is not None:
                    for m, state in zip(machines, saved):
                        m.restore_state(state)
            elif op == ("fork",):
                machines = [m.fork() for m in machines]
                machines[1].l1d.events.subscribe(_EveryEvent())
            else:
                for m in machines:
                    _apply(SoftwareCTContext(m), dss, base, op)
        ma, mb = machines
        assert _profiles(ma) == _profiles(mb)
        assert ma.snapshot() == mb.snapshot()
        for ca, cb in zip(ma.hierarchy.levels, mb.hierarchy.levels):
            assert ca.occupied_sets() == cb.occupied_sets(), ca.name
