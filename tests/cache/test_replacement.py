"""Replacement policies (each one cache set), with reference-model
property tests."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.line import CacheLine
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_policy,
    policy_names,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.bia import BIA
from repro.core.machine import Machine, MachineConfig
from repro.errors import ConfigurationError


def _fill(cset, way, key=None):
    """Install a line in ``way`` as a cache fill does: the way's old
    line leaves the key index, the new one (address ``key``, default
    ``way``) enters it, then the policy's fill hook runs."""
    old = cset.ways[way]
    if old is not None:
        del cset.by_addr[old.line_addr]
    key = way if key is None else key
    cset.ways[way] = CacheLine(key)
    cset.by_addr[key] = way
    cset.on_fill(way)


def _invalidate(cset, way):
    """Empty ``way`` as a cache invalidation does (no policy call)."""
    line = cset.ways[way]
    if line is not None:
        del cset.by_addr[line.line_addr]
        cset.ways[way] = None


class TestLRU:
    def test_victim_prefers_invalid_ways(self):
        lru = LRUPolicy(4)
        _fill(lru, 0)
        _fill(lru, 1)
        assert lru.victim() in (2, 3)

    def test_evicts_least_recently_used(self):
        lru = LRUPolicy(2)
        _fill(lru, 0)
        _fill(lru, 1)
        lru._rank_touch(0)
        assert lru.victim() == 1

    def test_fill_counts_as_use(self):
        lru = LRUPolicy(2)
        _fill(lru, 0)
        _fill(lru, 1)
        assert lru.victim() == 0

    def test_invalidate_frees_way(self):
        lru = LRUPolicy(2)
        _fill(lru, 0)
        _fill(lru, 1)
        _invalidate(lru, 0)
        assert lru.victim() == 0

    def test_recency_order(self):
        lru = LRUPolicy(3)
        for w in (0, 1, 2):
            _fill(lru, w)
        lru._rank_touch(0)
        assert lru.recency_order() == [0, 2, 1]

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=60))
    @settings(max_examples=100)
    def test_matches_reference_model(self, accesses):
        """LRU victim always equals an order-list reference model."""
        lru = LRUPolicy(4)
        order = []  # most recent last
        for way in accesses:
            if way in order:
                order.remove(way)
                lru._rank_touch(way)
            else:
                _fill(lru, way)
            order.append(way)
        if len(order) == 4:
            assert lru.victim() == order[0]


class TestFIFO:
    def test_ignores_touches(self):
        fifo = FIFOPolicy(2)
        _fill(fifo, 0)
        _fill(fifo, 1)
        fifo._rank_touch(0)
        assert fifo.victim() == 0  # still first-in

    def test_refill_moves_to_back(self):
        fifo = FIFOPolicy(2)
        _fill(fifo, 0)
        _fill(fifo, 1)
        _fill(fifo, 0)
        assert fifo.victim() == 1


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(8, seed=42)
        b = RandomPolicy(8, seed=42)
        for w in range(8):
            _fill(a, w)
            _fill(b, w)
        assert [a.victim() for _ in range(10)] == [b.victim() for _ in range(10)]

    def test_victim_in_range(self):
        r = RandomPolicy(4, seed=1)
        for w in range(4):
            _fill(r, w)
        assert all(0 <= r.victim() < 4 for _ in range(20))


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TreePLRUPolicy(6)

    def test_victim_avoids_most_recent(self):
        plru = TreePLRUPolicy(4)
        for w in range(4):
            _fill(plru, w)
        plru._rank_touch(2)
        assert plru.victim() != 2

    def test_two_way_behaves_like_lru(self):
        plru = TreePLRUPolicy(2)
        _fill(plru, 0)
        _fill(plru, 1)
        plru._rank_touch(0)
        assert plru.victim() == 1

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=40))
    @settings(max_examples=60)
    def test_never_evicts_the_hottest(self, accesses):
        plru = TreePLRUPolicy(8)
        for w in range(8):
            _fill(plru, w)
        for way in accesses:
            plru._rank_touch(way)
        assert plru.victim() != accesses[-1]


class TestRegistry:
    def test_make_policy_all_names(self):
        for name in policy_names():
            policy = make_policy(name, 4)
            _fill(policy, 0)
            assert 0 <= policy.victim() < 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("belady", 4)

    def test_zero_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(0)


class TestResolvedAtConstruction:
    """A bad policy fails when the cache is built, not at its first fill."""

    def test_unknown_name_fails_machine_construction(self):
        with pytest.raises(ConfigurationError, match="lruu"):
            Machine(MachineConfig(replacement="lruu"))

    def test_unknown_name_fails_cache_construction(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache("C", 4096, 4, 1, replacement="belady")

    def test_policy_rejecting_the_associativity_fails_construction(self):
        # 6 ways, 4 sets: tree PLRU needs a power-of-two way count
        with pytest.raises(ConfigurationError, match="power-of-two"):
            SetAssociativeCache("C", 6 * 64 * 4, 6, 1, replacement="plru")

    @pytest.mark.parametrize("name", policy_names())
    def test_lazy_sets_get_the_seeded_policy(self, name):
        cache = SetAssociativeCache(
            "C", 4096, 4, 1, replacement=name.upper(), replacement_seed=7
        )
        cache.fill(0x40 * 3)
        policy = cache._sets[3]
        expected = make_policy(name, 4, seed=7 + 3)
        assert type(policy) is type(expected)
        if name == "random":
            assert policy._rng.getstate() == expected._rng.getstate()


def _set_state(cset, rank_only=False):
    """Every slot of a set, for equality: each way's item as a tuple of
    its fields, the key index, the ranking state with an RNG as its
    state.  ``rank_only`` leaves out the ways and the key index."""
    out = {}
    for cls in type(cset).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if rank_only and slot in ("ways", "by_addr"):
                continue
            value = getattr(cset, slot)
            if slot == "ways":
                value = [None if item is None else dataclasses.astuple(item)
                         for item in value]
            elif isinstance(value, random.Random):
                value = value.getstate()
            out[slot] = value
    return out


def _fresh_policy(name):
    """An 8-way set; ``bia`` is the BIA's own LRU set."""
    if name == "bia":
        return BIA(entries=16, assoc=8)._sets[0]
    return make_policy(name, 8, seed=3)


class TestTouchN:
    """``touch_n(w, k)`` == ``k`` ``_rank_touch(w)`` calls, for every
    policy."""

    @given(
        name=st.sampled_from(policy_names() + ["bia"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fill", "invalidate", "touch"]),
                st.integers(0, 7),
                st.integers(1, 40),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=100)
    def test_equals_repeated_rank_touch(self, name, ops):
        fast, slow = _fresh_policy(name), _fresh_policy(name)
        for op, way, k in ops:
            if op == "fill":
                _fill(fast, way)
                _fill(slow, way)
            elif op == "invalidate":
                _invalidate(fast, way)
                _invalidate(slow, way)
            else:
                fast.touch_n(way, k)
                for _ in range(k):
                    slow._rank_touch(way)
            assert fast.victim() == slow.victim()
            if hasattr(fast, "recency_order"):
                assert fast.recency_order() == slow.recency_order()
            assert _set_state(fast.clone()) == _set_state(slow.clone())

    def test_base_class_loops_over_rank_touch(self):
        """A policy defined elsewhere stays exact through the base loop."""

        class CountingPolicy(ReplacementPolicy):
            __slots__ = ("touches",)

            def __init__(self, num_ways):
                super().__init__(num_ways)
                self.touches = 0

            def _rank_touch(self, way):
                self.touches += 1

            def _rank_victim(self):
                return 0

        policy = CountingPolicy(4)
        _fill(policy, 1)
        policy.touch_n(1, 5)
        assert policy.touches == 6  # the fill's touch, then five more


class _Reference:
    """The bookkeeping a set kept before its occupancy was read off its
    ways: a flag per way, set by a fill and cleared by an invalidation,
    beside a rank twin (a clone of the set under test, driven through
    the ranking hooks only).  The victim is the first unoccupied way,
    else the policy's rank."""

    def __init__(self, cset):
        self.occupied = [False] * cset.num_ways
        self.rank = cset.clone()

    def victim(self):
        if False in self.occupied:
            return self.occupied.index(False)
        return self.rank._rank_victim()

    def victim_among(self, allowed):
        if not allowed:
            return None
        for way in allowed:
            if not self.occupied[way]:
                return way
        return self.rank._rank_victim_among(allowed)

    def recency_order(self):
        occupied = [w for w, flag in enumerate(self.occupied) if flag]
        return sorted(occupied, key=self.rank._last_use.__getitem__,
                      reverse=True)


class TestOccupancyReference:
    """Occupancy read off ``ways``/``by_addr`` equals the per-way flags
    sets used to keep, through fills into any way (holes behind them),
    invalidations, touches, ``touch_n`` runs, victim fills and
    PLcache-style ``victim_among`` fills with locked ways."""

    @given(
        name=st.sampled_from(policy_names() + ["bia"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fill", "fill-victim", "fill-among",
                                 "invalidate", "touch", "touch_n"]),
                st.integers(0, 7),
                st.integers(1, 40),
                # locked ways of a "fill-among", one bit per way
                st.integers(0, 255),
            ),
            max_size=50,
        ),
    )
    @settings(max_examples=150)
    def test_matches_flag_bookkeeping(self, name, ops):
        cset = _fresh_policy(name)
        ref = _Reference(cset)
        for key, (op, way, k, locked) in enumerate(ops):
            if op == "fill-victim":
                way = cset.victim()
                assert way == ref.victim()
            elif op == "fill-among":
                allowed = [w for w in range(8) if not locked >> w & 1]
                way = cset.victim_among(allowed)
                assert way == ref.victim_among(allowed)
            if op.startswith("fill"):
                if way is not None:  # every way locked: refused
                    _fill(cset, way, key=1000 + key)
                    ref.occupied[way] = True
                    ref.rank.on_fill(way)
            elif op == "invalidate":
                _invalidate(cset, way)
                ref.occupied[way] = False
            elif op == "touch":
                cset._rank_touch(way)
                ref.rank._rank_touch(way)
            else:
                cset.touch_n(way, k)
                for _ in range(k):
                    ref.rank._rank_touch(way)
            assert [w is not None for w in cset.ways] == ref.occupied
            assert len(cset.by_addr) == sum(ref.occupied)
            assert cset.victim() == ref.victim()
            if hasattr(cset, "recency_order"):
                assert cset.recency_order() == ref.recency_order()
            assert (_set_state(cset, rank_only=True)
                    == _set_state(ref.rank, rank_only=True))
