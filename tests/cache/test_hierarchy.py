"""Multi-level hierarchy: fills, latency accounting, write-backs, bypass."""

import pytest

from repro import params
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigurationError
from repro.memory.dram import DRAM

LINE = params.LINE_SIZE


def build(l1_kw=None, l2_kw=None, dram_latency=200):
    l1 = SetAssociativeCache("L1D", 4096, 2, 2, **(l1_kw or {}))
    l2 = SetAssociativeCache("L2", 16 * 1024, 4, 15, **(l2_kw or {}))
    return CacheHierarchy([l1, l2], DRAM(latency=dram_latency))


class TestReadPath:
    def test_cold_miss_fills_all_levels(self):
        h = build()
        result = h.read_line(0x1000)
        assert result.hit_level is None
        assert result.latency == 2 + 15 + 200
        assert h.where(0x1000) == ["L1D", "L2"]

    def test_l1_hit_latency(self):
        h = build()
        h.read_line(0x1000)
        result = h.read_line(0x1000)
        assert result.hit_level == "L1D"
        assert result.latency == 2

    def test_l2_hit_refills_l1(self):
        h = build()
        h.read_line(0x1000)
        h.levels[0].invalidate(0x1000)
        result = h.read_line(0x1000)
        assert result.hit_level == "L2"
        assert result.latency == 2 + 15
        assert 0x1000 in h.levels[0]

    def test_dram_counted_once_per_cold_miss(self):
        h = build()
        h.read_line(0x1000)
        h.read_line(0x1000)
        assert h.dram.stats.reads == 1


class TestWritePath:
    def test_write_dirties_start_level_only(self):
        h = build()
        h.write_line(0x1000)
        assert h.levels[0].is_dirty(0x1000)
        assert not h.levels[1].is_dirty(0x1000)

    def test_write_allocate_on_miss(self):
        h = build()
        result = h.write_line(0x1000)
        assert result.hit_level is None
        assert 0x1000 in h.levels[0]


class TestWriteBack:
    def test_dirty_victim_lands_in_l2(self):
        h = build()
        conflicts = [i * 32 * LINE for i in range(3)]  # same L1 set
        h.write_line(conflicts[0])
        h.read_line(conflicts[1])
        h.read_line(conflicts[2])  # evicts dirty conflicts[0] from L1
        assert conflicts[0] not in h.levels[0]
        assert h.levels[1].is_dirty(conflicts[0])
        assert h.dram.stats.writes == 0

    def test_dirty_victim_falls_to_dram_when_l2_lost_it(self):
        h = build()
        conflicts = [i * 32 * LINE for i in range(3)]
        h.write_line(conflicts[0])
        h.levels[1].invalidate(conflicts[0])  # L2 no longer has it
        h.read_line(conflicts[1])
        h.read_line(conflicts[2])
        assert h.dram.stats.writes == 1


class TestFlushAndEvict:
    def test_flush_invalidates_everywhere(self):
        h = build()
        h.write_line(0x1000)
        latency = h.flush_line(0x1000)
        assert h.where(0x1000) == []
        assert latency == 200  # dirty write-back
        assert h.dram.stats.writes == 1

    def test_flush_clean_is_free(self):
        h = build()
        h.read_line(0x1000)
        assert h.flush_line(0x1000) == 0

    def test_targeted_evict(self):
        h = build()
        h.read_line(0x1000)
        assert h.evict_line_from("L1D", 0x1000)
        assert h.where(0x1000) == ["L2"]

    def test_targeted_evict_absent(self):
        h = build()
        assert not h.evict_line_from("L1D", 0x1000)

    def test_targeted_evict_dirty_writes_back(self):
        h = build()
        h.write_line(0x1000)
        h.evict_line_from("L1D", 0x1000)
        assert h.levels[1].is_dirty(0x1000)


class TestBypass:
    def test_start_level_skips_l1(self):
        h = build()
        result = h.read_line(0x1000, start_level=1)
        assert 0x1000 not in h.levels[0]
        assert 0x1000 in h.levels[1]
        assert result.latency == 15 + 200

    def test_uncached_read_changes_nothing(self):
        h = build()
        result = h.read_line_uncached(0x1000)
        assert result.latency == 200
        assert h.where(0x1000) == []
        assert h.dram.stats.reads == 1

    def test_uncached_write_changes_nothing(self):
        h = build()
        h.write_line_uncached(0x1000)
        assert h.where(0x1000) == []
        assert h.dram.stats.writes == 1


class TestUnobservedRead:
    @pytest.mark.parametrize("served_by", ["L1D", "L2", None])
    def test_profiles_nothing_but_is_a_real_access(self, served_by):
        """``observable=False`` (attacker, prefetch and eviction-set
        probes) keeps a read out of every level's per-set profile, and
        only out of it: the latency, hit level, hit and miss counts,
        fills and replacement order are those of an observed read."""
        h, ref = build(), build()
        conflict = 32 * LINE  # same L1 set as 0x1000
        for hh in (h, ref):
            if served_by is not None:
                hh.read_line(0x1000)
                hh.read_line(0x1000 + conflict)
            if served_by == "L2":
                hh.levels[0].invalidate(0x1000)
            for cache in hh.levels:
                cache.stats.reset()
        got = h.read_line(0x1000, observable=False)
        want = ref.read_line(0x1000)
        assert (got.latency, got.hit_level) == (want.latency, want.hit_level)
        assert got.hit_level == served_by
        assert ref.levels[0].stats.set_accesses
        for cache, other in zip(h.levels, ref.levels):
            assert cache.stats.set_accesses == {}
            assert sum(other.stats.set_accesses.values()) == other.stats.accesses
            assert (cache.stats.hits, cache.stats.misses, cache.stats.fills) == (
                other.stats.hits, other.stats.misses, other.stats.fills,
            )
            assert cache.replacement_state(cache.set_index(0x1000)) == (
                other.replacement_state(other.set_index(0x1000))
            )


class TestConfig:
    def test_duplicate_names_rejected(self):
        l1 = SetAssociativeCache("X", 4096, 2, 2)
        l2 = SetAssociativeCache("X", 4096, 2, 2)
        with pytest.raises(ConfigurationError):
            CacheHierarchy([l1, l2], DRAM())

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([], DRAM())

    def test_level_lookup(self):
        h = build()
        assert h.level("L2").name == "L2"
        with pytest.raises(ConfigurationError):
            h.level("LLC")

    def test_reset_stats(self):
        h = build()
        h.read_line(0x1000)
        h.reset_stats()
        assert h.levels[0].stats.accesses == 0
        assert h.dram.stats.accesses == 0


class TestEvictResultLatency:
    """Targeted evictions report their dirty-write-back latency."""

    def test_result_truthiness_matches_presence(self):
        h = build()
        h.read_line(0x1000)
        hit = h.evict_line_from("L1D", 0x1000)
        miss = h.evict_line_from("L1D", 0x2000)
        assert bool(hit) and not bool(miss)
        assert miss.latency == 0

    def test_clean_evict_costs_nothing(self):
        h = build()
        h.read_line(0x1000)
        assert h.evict_line_from("L1D", 0x1000).latency == 0

    def test_dirty_evict_absorbed_by_lower_level_costs_nothing(self):
        h = build()
        h.write_line(0x1000)  # dirty in L1D, clean copy in L2
        result = h.evict_line_from("L1D", 0x1000)
        assert result and result.latency == 0  # write-back hit the L2
        assert h.levels[1].is_dirty(0x1000)

    def test_dirty_evict_with_no_lower_copy_pays_dram_write(self):
        h = build()
        h.write_line(0x1000)
        h.levels[1].invalidate(0x1000)  # L2 no longer holds the line
        writes_before = h.dram.stats.writes
        result = h.evict_line_from("L1D", 0x1000)
        assert result
        assert result.latency == 200  # the DRAM write-back
        assert h.dram.stats.writes == writes_before + 1

    def test_dirty_evict_from_last_level_pays_dram_write(self):
        h = build()
        h.write_line(0x1000)
        h.levels[0].invalidate(0x1000)
        h.levels[1].set_dirty(0x1000)  # dirty now lives in the L2
        assert h.evict_line_from("L2", 0x1000).latency == 200
