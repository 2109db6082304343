"""BIA structure: allocation, monitoring, and the subset invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.bia import BIA, BIAEntry
from repro.errors import ConfigurationError
from repro.memory import address as am

LINE = params.LINE_SIZE
PAGE = params.PAGE_SIZE


def attached_pair(entries=16, assoc=4):
    cache = SetAssociativeCache("L1D", 16 * 1024, 4, 2)
    bia = BIA(entries=entries, assoc=assoc)
    bia.attach(cache)
    return cache, bia


class TestEntry:
    def test_bit_operations(self):
        e = BIAEntry(page_idx=1)
        e.set_exist(3)
        assert e.existence == 0b1000
        e.set_dirty(5)
        assert e.existence == 0b101000 and e.dirtiness == 0b100000
        e.clear_exist(5)
        assert e.existence == 0b1000 and e.dirtiness == 0

    def test_clear_dirty_keeps_existence(self):
        e = BIAEntry(page_idx=1)
        e.set_dirty(2)
        e.clear_dirty(2)
        assert e.existence == 0b100 and e.dirtiness == 0


class TestAllocation:
    def test_access_allocates_zeroed(self):
        _, bia = attached_pair()
        entry = bia.access(5)
        assert entry.page_idx == 5
        assert entry.existence == 0 and entry.dirtiness == 0
        assert bia.stats.allocations == 1

    def test_access_hit_reuses(self):
        _, bia = attached_pair()
        e1 = bia.access(5)
        e2 = bia.access(5)
        assert e1 is e2
        assert bia.stats.hits == 1

    def test_lookup_is_passive(self):
        _, bia = attached_pair()
        assert bia.lookup(5) is None
        assert bia.stats.allocations == 0

    def test_lru_eviction_within_set(self):
        _, bia = attached_pair(entries=8, assoc=2)  # 4 sets
        # pages 0, 4, 8 all map to set 0; assoc 2 -> third evicts first
        bia.access(0)
        bia.access(4)
        bia.access(0)  # refresh 0
        bia.access(8)
        assert bia.lookup(4) is None
        assert bia.lookup(0) is not None
        assert bia.stats.evictions == 1

    def test_reallocated_entry_is_zeroed(self):
        cache, bia = attached_pair(entries=8, assoc=2)
        entry = bia.access(0)
        cache.fill(0)  # page 0, line 0
        assert entry.existence != 0
        bia.access(4)
        bia.access(8)  # evicts page 0
        fresh = bia.access(0)
        assert fresh.existence == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BIA(entries=0)
        with pytest.raises(ConfigurationError):
            BIA(entries=10, assoc=4)  # not divisible
        with pytest.raises(ConfigurationError):
            BIA(entries=24, assoc=4)  # 6 sets, not a power of two


class TestMonitoring:
    def test_fill_sets_existence(self):
        cache, bia = attached_pair()
        entry = bia.access(am.page_index(0x3040))
        cache.fill(0x3040)
        assert entry.existence == 1 << am.line_in_group(0x3040, params.PAGE_BITS)

    def test_fill_without_entry_is_ignored(self):
        cache, bia = attached_pair()
        cache.fill(0x3040)
        assert bia.lookup(am.page_index(0x3040)) is None

    def test_eviction_clears_bits(self):
        cache, bia = attached_pair()
        entry = bia.access(0)
        cache.fill(0x40, dirty=True)
        assert entry.existence and entry.dirtiness
        cache.invalidate(0x40)
        assert entry.existence == 0 and entry.dirtiness == 0

    def test_dirty_transition_tracked(self):
        cache, bia = attached_pair()
        entry = bia.access(0)
        cache.fill(0x40)
        assert entry.dirtiness == 0
        cache.set_dirty(0x40)
        assert entry.dirtiness == 1 << 1

    def test_clean_transition_tracked(self):
        cache, bia = attached_pair()
        entry = bia.access(0)
        cache.fill(0x40, dirty=True)
        cache.clean(0x40)
        assert entry.dirtiness == 0
        assert entry.existence == 1 << 1

    def test_hit_updates_existing_entry(self):
        cache, bia = attached_pair()
        cache.fill(0x40)  # before the BIA entry exists
        entry = bia.access(0)
        assert entry.existence == 0  # under-approximation
        cache.access(0x40)  # a hit teaches the BIA
        assert entry.existence == 1 << 1

    @pytest.mark.parametrize("path, dirty", [
        ("access_lines", False), ("access_lines/mark_dirty", True),
        ("rmw_lines", True),
    ])
    def test_every_batched_hit_teaches_the_bia(self, path, dirty):
        """The batch kernels hand every hit run to the monitor: a line
        filled before its entry existed is learnt from a batch hit, and
        a write's dirty transition follows it."""
        cache, bia = attached_pair()
        cache.fill(0x40)
        entry = bia.access(0)
        if path == "access_lines":
            cache.access_lines([0x40, 0x40])
        elif path == "access_lines/mark_dirty":
            cache.access_lines([0x40, 0x40], 0, None, True)
        else:
            cache.rmw_lines([0x40])
        assert entry.existence == 1 << 1
        assert entry.dirtiness == (1 << 1 if dirty else 0)

    def test_other_cache_events_ignored(self):
        cache, bia = attached_pair()
        other = SetAssociativeCache("L2", 16 * 1024, 4, 15)
        other.events.subscribe(bia)
        bia.access(0)
        other.fill(0x40)
        assert bia.lookup(0).existence == 0


class TestSubsetInvariant:
    def test_check_subset_detects_truth(self):
        cache, bia = attached_pair()
        bia.access(0)
        cache.fill(0x40, dirty=True)
        assert bia.check_subset_of(cache)

    def test_check_subset_detects_violation(self):
        cache, bia = attached_pair()
        entry = bia.access(0)
        entry.set_exist(1)  # claim line 1 present without filling it
        assert not bia.check_subset_of(cache)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fill", "fill_dirty", "inval", "dirty", "ct"]),
                st.integers(min_value=0, max_value=127),
            ),
            max_size=150,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_invariant_under_random_traffic(self, ops):
        """The safety property of Sec. 5.2: the BIA never over-reports."""
        cache, bia = attached_pair(entries=8, assoc=2)
        for op, line_idx in ops:
            line_addr = line_idx * LINE
            if op == "fill":
                cache.fill(line_addr)
            elif op == "fill_dirty":
                cache.fill(line_addr, dirty=True)
            elif op == "inval":
                cache.invalidate(line_addr)
            elif op == "dirty":
                cache.set_dirty(line_addr)
            elif op == "ct":
                bia.access(am.page_index(line_addr))
        assert bia.check_subset_of(cache)
