"""Next-line prefetcher (the Fig. 6(d) interference source)."""

from repro import params
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import NextLinePrefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.machine import Machine, MachineConfig
from repro.memory.dram import DRAM

LINE = params.LINE_SIZE


def build():
    l1 = SetAssociativeCache("L1D", 4096, 2, 2)
    pf = NextLinePrefetcher()
    return CacheHierarchy([l1], DRAM(), pf), pf


class TestPrefetcher:
    def test_demand_miss_prefetches_next_line(self):
        h, pf = build()
        h.read_line(0x1000)
        assert 0x1000 + LINE in h.levels[0]
        assert pf.issued == 1

    def test_prefetched_lines_are_clean(self):
        h, _ = build()
        h.read_line(0x1000)
        assert not h.levels[0].is_dirty(0x1000 + LINE)

    def test_hit_does_not_prefetch(self):
        h, pf = build()
        h.read_line(0x1000)
        issued = pf.issued
        h.read_line(0x1000)  # hit
        assert pf.issued == issued

    def test_prefetch_does_not_cascade(self):
        h, pf = build()
        h.read_line(0x1000)
        # the prefetch of 0x1040 missed in DRAM but must not trigger
        # a prefetch of 0x1080
        assert 0x1000 + 2 * LINE not in h.levels[0]

    def test_machine_builds_one_only_when_configured(self):
        assert Machine(MachineConfig()).hierarchy.prefetcher is None
        machine = Machine(MachineConfig(prefetcher=True))
        machine.load_word(0x10000)
        assert 0x10000 + LINE in machine.l1d
        assert machine.hierarchy.prefetcher.issued == 1

    def test_skips_already_resident(self):
        h, pf = build()
        h.read_line(0x1000)          # prefetches 0x1040
        h.read_line(0x1000 + LINE)   # hit? no - it was prefetched, so hit
        issued = pf.issued
        h.read_line(0x2000)
        assert pf.issued == issued + 1
