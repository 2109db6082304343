"""Replacement policies, including an LRU reference-model property test."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestLRU:
    def test_victim_prefers_invalid_ways(self):
        lru = LRUPolicy(4)
        lru.on_fill(0)
        lru.on_fill(1)
        assert lru.victim() in (2, 3)

    def test_evicts_least_recently_used(self):
        lru = LRUPolicy(2)
        lru.on_fill(0)
        lru.on_fill(1)
        lru.on_access(0)
        assert lru.victim() == 1

    def test_fill_counts_as_use(self):
        lru = LRUPolicy(2)
        lru.on_fill(0)
        lru.on_fill(1)
        assert lru.victim() == 0

    def test_invalidate_frees_way(self):
        lru = LRUPolicy(2)
        lru.on_fill(0)
        lru.on_fill(1)
        lru.on_invalidate(0)
        assert lru.victim() == 0

    def test_recency_order(self):
        lru = LRUPolicy(3)
        for w in (0, 1, 2):
            lru.on_fill(w)
        lru.on_access(0)
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
                lru.on_access(way)
            else:
                lru.on_fill(way)
            order.append(way)
        if len(order) == 4:
            assert lru.victim() == order[0]


class TestFIFO:
    def test_ignores_touches(self):
        fifo = FIFOPolicy(2)
        fifo.on_fill(0)
        fifo.on_fill(1)
        fifo.on_access(0)
        assert fifo.victim() == 0  # still first-in

    def test_refill_moves_to_back(self):
        fifo = FIFOPolicy(2)
        fifo.on_fill(0)
        fifo.on_fill(1)
        fifo.on_fill(0)
        assert fifo.victim() == 1


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(8, seed=42)
        b = RandomPolicy(8, seed=42)
        for w in range(8):
            a.on_fill(w)
            b.on_fill(w)
        assert [a.victim() for _ in range(10)] == [b.victim() for _ in range(10)]

    def test_victim_in_range(self):
        r = RandomPolicy(4, seed=1)
        for w in range(4):
            r.on_fill(w)
        assert all(0 <= r.victim() < 4 for _ in range(20))


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TreePLRUPolicy(6)

    def test_victim_avoids_most_recent(self):
        plru = TreePLRUPolicy(4)
        for w in range(4):
            plru.on_fill(w)
        plru.on_access(2)
        assert plru.victim() != 2

    def test_two_way_behaves_like_lru(self):
        plru = TreePLRUPolicy(2)
        plru.on_fill(0)
        plru.on_fill(1)
        plru.on_access(0)
        assert plru.victim() == 1

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=40))
    @settings(max_examples=60)
    def test_never_evicts_the_hottest(self, accesses):
        plru = TreePLRUPolicy(8)
        for w in range(8):
            plru.on_fill(w)
        for way in accesses:
            plru.on_access(way)
        assert plru.victim() != accesses[-1]


class TestRegistry:
    def test_make_policy_all_names(self):
        for name in policy_names():
            policy = make_policy(name, 4)
            policy.on_fill(0)
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
        policy = cache._sets[3].policy
        expected = make_policy(name, 4, seed=7 + 3)
        assert type(policy) is type(expected)
        if name == "random":
            assert policy._rng.getstate() == expected._rng.getstate()


def _policy_state(policy):
    """Every slot of a policy, an RNG as its state (for equality)."""
    out = {}
    for cls in type(policy).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(policy, slot)
            if isinstance(value, random.Random):
                value = value.getstate()
            out[slot] = value
    return out


def _fresh_policy(name):
    """Two identical 8-way policies; ``bia`` is the BIA's own LRU."""
    if name == "bia":
        return BIA(entries=16, assoc=8)._sets[0].policy
    return make_policy(name, 8, seed=3)


class TestTouchN:
    """``touch_n(w, k)`` == ``k`` ``on_access(w)`` calls, for every policy."""

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
    def test_equals_repeated_on_access(self, name, ops):
        fast, slow = _fresh_policy(name), _fresh_policy(name)
        for op, way, k in ops:
            if op == "fill":
                fast.on_fill(way)
                slow.on_fill(way)
            elif op == "invalidate":
                fast.on_invalidate(way)
                slow.on_invalidate(way)
            else:
                fast.touch_n(way, k)
                for _ in range(k):
                    slow.on_access(way)
            assert fast.victim() == slow.victim()
            if hasattr(fast, "recency_order"):
                assert fast.recency_order() == slow.recency_order()
            assert _policy_state(fast.clone()) == _policy_state(slow.clone())

    def test_base_class_loops_over_on_access(self):
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
        policy.on_fill(1)
        policy.touch_n(1, 5)
        assert policy.touches == 6  # the fill's touch, then five more
