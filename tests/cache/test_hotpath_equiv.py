"""Equivalence tests for the hot-path rewrites.

The simulator's inner loop was rewritten for speed (shift/mask set
indexing, listener-gated event emission, devirtualized replacement
touches).  None of those rewrites may change semantics; these tests
pin the equivalences:

* shift/mask set indexing == the textbook div/mod formula, across
  geometries and address patterns (including the negative addresses
  Python's arbitrary-precision ints allow);
* a cache that never had a listener ends a workload byte-identical
  (counters + contents + replacement order) to one whose listener
  subscribed and then unsubscribed — the ``has_listeners`` fast path
  must not leak into simulation state;
* ``unsubscribe`` of a never-subscribed listener is a cheap no-op;
* ``MachineConfig.replacement_seed`` reaches every level and makes
  ``replacement="random"`` runs reproducible.
"""

from __future__ import annotations

import random

import pytest

from repro import params
from repro.cache.events import CacheListener
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.machine import Machine, MachineConfig

# ---------------------------------------------------------------------------
# shift/mask set indexing == div/mod
# ---------------------------------------------------------------------------

GEOMETRIES = [
    # (size_bytes, assoc)
    (32 * 1024, 8),  # Table-1 L1d
    (256 * 1024, 8),  # Table-1 L2
    (8 * 1024 * 1024, 16),  # Table-1 LLC
    (4 * 1024, 1),  # direct-mapped
    (4 * 1024, 64),  # fully associative (1 set)
    (2 * 1024, 2),  # small
    (16 * 1024, 4),  # 4-way
]


@pytest.mark.parametrize("size_bytes,assoc", GEOMETRIES)
def test_set_index_matches_divmod(size_bytes, assoc):
    cache = SetAssociativeCache("C", size_bytes, assoc, latency=1)
    line_size = params.LINE_SIZE
    rng = random.Random(7)
    addrs = [rng.randrange(0, 1 << 48) for _ in range(2000)]
    # stride patterns that walk set boundaries exactly
    addrs += [i * line_size for i in range(4 * cache.num_sets)]
    addrs += [i * line_size * cache.num_sets for i in range(64)]
    for addr in addrs:
        line_addr = (addr // line_size) * line_size
        expect = (line_addr // line_size) % cache.num_sets
        assert cache.set_index(line_addr) == expect


def test_set_index_negative_addresses():
    """Python's ``>>``/``&`` agree with floor div/mod below zero too."""
    cache = SetAssociativeCache("C", 32 * 1024, 8, latency=1)
    for line_addr in (-64, -128, -(1 << 20), -(1 << 20) - 64):
        expect = (line_addr // 64) % cache.num_sets
        assert cache.set_index(line_addr) == expect


def test_shift_mask_fast_path_is_active():
    """The architectural line size takes the shift/mask path."""
    cache = SetAssociativeCache("C", 32 * 1024, 8, latency=1)
    assert cache._line_shift == 6
    assert cache._set_mask == cache.num_sets - 1


# ---------------------------------------------------------------------------
# listener-free fast path leaves no trace in simulation state
# ---------------------------------------------------------------------------


class _Recorder(CacheListener):
    def __init__(self):
        self.events = []

    def on_hit(self, cache_name, line_addr, dirty):
        self.events.append(("hit", line_addr, dirty))

    def on_fill(self, cache_name, line_addr, dirty):
        self.events.append(("fill", line_addr, dirty))

    def on_evict(self, cache_name, line_addr, dirty):
        self.events.append(("evict", line_addr, dirty))


def _drive(cache: SetAssociativeCache, seed: int = 3) -> None:
    """A mixed access pattern with hits, misses, evictions, stores."""
    rng = random.Random(seed)
    for _ in range(4000):
        line_addr = rng.randrange(0, 1024) * 64
        if cache.access(line_addr) is None:
            cache.fill(line_addr, dirty=rng.random() < 0.3)
        if rng.random() < 0.1:
            cache.set_dirty(line_addr)
        if rng.random() < 0.02:
            cache.invalidate(rng.randrange(0, 1024) * 64)


def _state(cache: SetAssociativeCache):
    return (
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.fills,
        cache.stats.evictions,
        cache.stats.dirty_evictions,
        cache.stats.invalidations,
        dict(cache.stats.set_accesses),
        cache.resident_lines(),
        [cache.replacement_state(s) for s in range(cache.num_sets)],
        [sorted(cache.set_contents(s)) for s in range(cache.num_sets)],
    )


def test_no_listener_identical_to_subscribed_then_unsubscribed():
    quiet = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    churned = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    rec = _Recorder()
    churned.events.subscribe(rec)
    churned.events.unsubscribe(rec)
    assert not churned.events.has_listeners

    _drive(quiet)
    _drive(churned)
    assert rec.events == []  # unsubscribed before any traffic
    assert _state(quiet) == _state(churned)


def test_subscribed_listener_still_sees_everything():
    """The gating flag must not silence an actually-subscribed listener."""
    cache = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    rec = _Recorder()
    cache.events.subscribe(rec)
    _drive(cache)
    kinds = {kind for kind, *_ in rec.events}
    assert {"hit", "fill", "evict"} <= kinds
    # and the event counts match the stats the cache kept
    assert sum(1 for k, *_ in rec.events if k == "fill") == cache.stats.fills
    assert (
        sum(1 for k, *_ in rec.events if k == "evict")
        == cache.stats.evictions
    )


def test_unsubscribe_never_subscribed_is_noop():
    cache = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    stranger = _Recorder()
    cache.events.unsubscribe(stranger)  # must not raise
    assert not cache.events.has_listeners
    # and does not disturb real subscriptions
    rec = _Recorder()
    cache.events.subscribe(rec)
    cache.events.unsubscribe(stranger)
    assert cache.events.has_listeners
    cache.fill(0)
    assert rec.events == [("fill", 0, False)]


def test_unsubscribe_removes_by_identity_not_equality():
    """Regression: ``unsubscribe`` used ``list.remove`` (``==``), so a
    listener overriding ``__eq__`` could evict the *wrong* subscriber
    while its own entry survived — out of sync with the ``id()``-based
    membership set."""

    class EqualRecorder(_Recorder):
        def __eq__(self, other):  # every instance compares equal
            return isinstance(other, EqualRecorder)

        def __hash__(self):
            return 0

    cache = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    first, second = EqualRecorder(), EqualRecorder()
    cache.events.subscribe(first)
    cache.events.subscribe(second)
    cache.events.unsubscribe(second)  # must remove *second*, not first
    cache.fill(0)
    assert first.events == [("fill", 0, False)]
    assert second.events == []
    # and the survivor can still be unsubscribed cleanly
    cache.events.unsubscribe(first)
    assert not cache.events.has_listeners
    cache.fill(64)
    assert first.events == [("fill", 0, False)]


def test_double_subscribe_is_idempotent():
    cache = SetAssociativeCache("A", 8 * 1024, 4, latency=1)
    rec = _Recorder()
    cache.events.subscribe(rec)
    cache.events.subscribe(rec)
    cache.fill(0)
    assert rec.events == [("fill", 0, False)]  # exactly one delivery
    cache.events.unsubscribe(rec)
    assert not cache.events.has_listeners


# ---------------------------------------------------------------------------
# replacement_seed threading
# ---------------------------------------------------------------------------


def _random_machine_trace(seed: int):
    machine = Machine(
        MachineConfig(replacement="random", replacement_seed=seed)
    )
    # 4x the 64 KiB L1d so random victim choice actually fires
    span = 256 * 1024
    base = machine.allocator.alloc(span, "buf")
    rng = random.Random(11)
    for _ in range(6000):
        machine.load_word(base + rng.randrange(0, span // 8) * 8)
    l1d = machine.hierarchy.levels[0]
    assert l1d.stats.evictions > 0
    return machine.snapshot(), tuple(l1d.resident_lines())


def test_replacement_seed_reaches_every_level():
    machine = Machine(MachineConfig(replacement_seed=42))
    seeds = [c.replacement_seed for c in machine.hierarchy.levels]
    assert seeds[0] == 42
    # distinct per level so levels don't share RNG streams
    assert len(set(seeds)) == len(seeds)


def test_random_replacement_reproducible_across_machines():
    assert _random_machine_trace(5) == _random_machine_trace(5)


def test_random_replacement_seed_changes_trace():
    assert _random_machine_trace(5) != _random_machine_trace(6)
