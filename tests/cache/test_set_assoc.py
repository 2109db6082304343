"""Single-level set-associative cache model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.cache.events import CacheListener
from repro.cache.plcache import PartitionLockedCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigurationError, ProtocolError

LINE = params.LINE_SIZE


def small_cache(**kw):
    defaults = dict(name="T", size_bytes=4096, assoc=2, latency=2)
    defaults.update(kw)
    return SetAssociativeCache(**defaults)


class _Recorder(CacheListener):
    def __init__(self):
        self.log = []

    def on_hit(self, c, a, d):
        self.log.append(("hit", a))

    def on_fill(self, c, a, d):
        self.log.append(("fill", a, d))

    def on_evict(self, c, a, d):
        self.log.append(("evict", a, d))

    def on_invalidate(self, c, a):
        self.log.append(("inval", a))

    def on_dirty(self, c, a):
        self.log.append(("dirty", a))

    def on_clean(self, c, a):
        self.log.append(("clean", a))


class TestGeometry:
    def test_set_count(self):
        cache = small_cache()  # 4096 / (2 * 64) = 32 sets
        assert cache.num_sets == 32

    def test_set_index_wraps(self):
        cache = small_cache()
        assert cache.set_index(0) == 0
        assert cache.set_index(32 * LINE) == 0
        assert cache.set_index(LINE) == 1

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            small_cache(size_bytes=1000)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            small_cache(size_bytes=64 * 2 * 3)  # 3 sets

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ConfigurationError):
            small_cache(latency=0)


class TestAccess:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x1000) is None
        cache.fill(0x1000)
        line = cache.access(0x1000)
        assert line is not None and line.line_addr == 0x1000
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_contains(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert 0x1000 in cache
        assert 0x2000 not in cache

    def test_lookup_is_pure(self):
        cache = small_cache()
        cache.fill(0x1000)
        hits, misses = cache.stats.hits, cache.stats.misses
        assert cache.lookup(0x1000) is not None
        assert cache.lookup(0x9000) is None
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)

    def test_per_set_access_counting(self):
        cache = small_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x1000, observable=False)
        idx = cache.set_index(0x1000)
        assert cache.stats.set_accesses[idx] == 2


class TestFillEvict:
    def test_capacity_eviction_lru(self):
        cache = small_cache()  # 2-way
        conflict = 32 * LINE  # same set as 0
        cache.fill(0)
        cache.fill(conflict)
        cache.access(0)  # 0 now MRU
        victim = cache.fill(2 * conflict)
        assert victim is not None and victim.line_addr == conflict

    def test_refill_does_not_evict(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.fill(0x1000) is None
        assert cache.stats.fills == 1

    def test_refill_can_upgrade_dirty(self):
        cache = small_cache()
        cache.fill(0x1000, dirty=False)
        cache.fill(0x1000, dirty=True)
        assert cache.is_dirty(0x1000)

    def test_dirty_eviction_counted(self):
        cache = small_cache()
        conflict = 32 * LINE
        cache.fill(0, dirty=True)
        cache.fill(conflict)
        cache.fill(2 * conflict)
        assert cache.stats.dirty_evictions == 1


class TestDirty:
    def test_set_dirty_requires_residency(self):
        cache = small_cache()
        assert not cache.set_dirty(0x1000)
        cache.fill(0x1000)
        assert cache.set_dirty(0x1000)
        assert cache.is_dirty(0x1000)

    def test_clean(self):
        cache = small_cache()
        cache.fill(0x1000, dirty=True)
        assert cache.clean(0x1000)
        assert not cache.is_dirty(0x1000)
        assert not cache.clean(0x1000)  # already clean


class TestInvalidate:
    def test_invalidate_removes(self):
        cache = small_cache()
        cache.fill(0x1000)
        removed = cache.invalidate(0x1000)
        assert removed.line_addr == 0x1000
        assert 0x1000 not in cache

    def test_invalidate_absent_is_noop(self):
        cache = small_cache()
        assert cache.invalidate(0x1000) is None

    def test_invalidated_way_reused_first(self):
        cache = small_cache()
        conflict = 32 * LINE
        cache.fill(0)
        cache.fill(conflict)
        cache.invalidate(0)
        victim = cache.fill(2 * conflict)
        assert victim is None  # reused the empty way, no eviction


class TestEvents:
    def test_event_sequence(self):
        cache = small_cache()
        rec = _Recorder()
        cache.events.subscribe(rec)
        cache.fill(0x1000)
        cache.access(0x1000)
        cache.set_dirty(0x1000)
        cache.invalidate(0x1000)
        kinds = [e[0] for e in rec.log]
        assert kinds == ["fill", "hit", "dirty", "inval"]

    def test_unsubscribe(self):
        cache = small_cache()
        rec = _Recorder()
        cache.events.subscribe(rec)
        cache.events.unsubscribe(rec)
        cache.fill(0x1000)
        assert not rec.log


#: Every way a level can hit line 0, with the hits each path records.
#: The run kernels serve only levels without a per-event listener.
_HIT_PATHS = {
    "access": (lambda c: c.access(0), 1),
    "access_lines": (lambda c: c.access_lines([0]), 1),
    "access_lines/mark_dirty": (lambda c: c.access_lines([0], 0, None, True), 1),
    "access_lines/counts": (
        lambda c: c.access_lines([0], 0, None, True, [3]), 3,
    ),
    "rmw_lines": (lambda c: c.rmw_lines([0]), 2),
}


class TestReplacementState:
    def test_replacement_state_exposed(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(32 * LINE)
        cache.access(0)
        assert cache.replacement_state(0) == (0, 32 * LINE)

    @pytest.mark.parametrize("policy, victim", [
        ("lru", 32 * LINE), ("plru", 32 * LINE), ("fifo", 0),
    ])
    @pytest.mark.parametrize("path, listeners", [
        ("access", False), ("access", True),
        ("access_lines", False),
        ("access_lines/mark_dirty", False),
        ("access_lines/counts", False),
        ("rmw_lines", False),
    ])
    def test_every_hit_updates_replacement_state(
        self, policy, victim, path, listeners
    ):
        """No hit leaves the replacement order alone: each path touches
        the hit way through its policy, the scalar one with and without
        a listener.  Under LRU and tree-PLRU the refreshed line 0 stops
        being the victim of its 2-way set; under FIFO a hit moves
        nothing, so the first fill still goes."""
        cache = small_cache(replacement=policy)
        rec = _Recorder()
        if listeners:
            cache.events.subscribe(rec)
        conflict = 32 * LINE  # same set as 0
        cache.fill(0)
        cache.fill(conflict)
        run, hits = _HIT_PATHS[path]
        run(cache)
        assert (cache.stats.hits, cache.stats.misses) == (hits, 0)
        if listeners:
            assert [e for e in rec.log if e[0] == "hit"] == [("hit", 0)] * hits
        assert cache.fill(2 * conflict).line_addr == victim

    @pytest.mark.parametrize("policy", ["lru", "plru", "fifo"])
    @pytest.mark.parametrize("path", [
        "access_lines", "access_lines/mark_dirty", "access_lines/counts",
        "rmw_lines",
    ])
    def test_run_kernels_refuse_a_per_event_listener(self, policy, path):
        """A run kernel on a level with a per-event listener raises
        before any access (the machine sends such batches to its
        scalar loop): counters, per-set profile, dirty bits, events and
        replacement state stay as they were, so line 0, filled first,
        is still every policy's victim."""
        cache = small_cache(replacement=policy)
        rec = _Recorder()
        cache.events.subscribe(rec)
        conflict = 32 * LINE  # same set as 0
        cache.fill(0)
        cache.fill(conflict)

        def state():
            return (
                cache.stats.hits, cache.stats.misses,
                dict(cache.stats.set_accesses), cache.set_contents(0),
                cache.replacement_state(0), list(rec.log),
            )

        before = state()
        run, _hits = _HIT_PATHS[path]
        with pytest.raises(ProtocolError, match="its own event"):
            run(cache)
        assert state() == before
        assert cache.fill(2 * conflict).line_addr == 0


class TestResidency:
    def test_resident_lines_sorted(self):
        cache = small_cache()
        cache.fill(0x2000)
        cache.fill(0x1000)
        assert cache.resident_lines() == [0x1000, 0x2000]

    def test_set_contents(self):
        cache = small_cache()
        cache.fill(0x1000, dirty=True)
        assert cache.set_contents(cache.set_index(0x1000)) == [(0x1000, True)]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50)
    def test_capacity_never_exceeded(self, line_indices):
        cache = small_cache()  # 64 lines capacity
        for idx in line_indices:
            if cache.access(idx * LINE) is None:
                cache.fill(idx * LINE)
        assert len(cache.resident_lines()) <= 64
        # every resident line is one we touched
        touched = {idx * LINE for idx in line_indices}
        assert set(cache.resident_lines()) <= touched


def _line(line):
    return None if line is None else (line.line_addr, line.dirty)


def _set_state(cset):
    """Every slot of a set, for equality: each way as (address, dirty),
    the key index, the ranking state with an RNG as its state."""
    out = {}
    for cls in type(cset).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(cset, slot)
            if slot == "ways":
                value = [_line(line) for line in value]
            elif isinstance(value, random.Random):
                value = value.getstate()
            out[slot] = value
    return out


class TestLazySets:
    """A set materialises at its first fill.  Its twin cache gets the
    same operations, but some of the sets they fill were built empty
    beforehand.  The two caches must agree on everything: a set built
    at its first fill is the set an eager constructor would have
    built, under every policy (the random one's per-set seed included)
    and under PLcache's own fill."""

    @pytest.mark.parametrize(
        "cls", [SetAssociativeCache, PartitionLockedCache],
        ids=["plain", "plcache"],
    )
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fill", "fill-dirty", "access", "lock"]),
                # 24 lines over 4 sets of 2 ways: evictions, and under
                # PLcache fully locked sets that refuse fills
                st.integers(min_value=0, max_value=23),
            ),
            min_size=1,
            max_size=40,
        ),
        prebuilt=st.sets(st.integers(min_value=0, max_value=3), min_size=1),
    )
    @settings(max_examples=40)
    def test_first_fill_matches_fill_into_built_empty_set(
        self, cls, policy, ops, prebuilt
    ):
        filled = {line % 4 for kind, line in ops if kind.startswith("fill")}
        results = []
        for build in ((), prebuilt & filled):
            cache = cls("T", 4 * 2 * LINE, 2, 1, replacement=policy,
                        replacement_seed=9)
            rec = _Recorder()
            cache.events.subscribe(rec)
            for set_idx in build:
                cache._set_at(set_idx)
            returned = []
            for kind, line in ops:
                addr = line * LINE
                if kind == "access":
                    returned.append(_line(cache.access(addr)))
                elif kind == "lock":
                    if cls is PartitionLockedCache:
                        returned.append(cache.lock(addr))
                else:
                    returned.append(
                        _line(cache.fill(addr, dirty=kind == "fill-dirty"))
                    )
            state = cache.capture_state()
            results.append((
                [(idx, _set_state(cset)) for idx, cset in state.sets],
                state.stats,
                state.extra,
                rec.log,
                returned,
            ))
        assert results[0] == results[1]
