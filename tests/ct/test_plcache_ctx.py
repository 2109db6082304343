"""PLcache+preload context: great performance, demonstrable leaks.

This is the paper's Sec. 6.1 argument made executable: PLcache matches
the BIA on performance for pinned DSs, but the same trace-equivalence
checker that certifies the BIA *fails* PLcache (LRU updates and dirty
bits replay the secret), and pinning starves co-running processes.
"""

import pytest

from repro import params
from repro.analysis.sanitizer import sanitize
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.plcache_ctx import PLCachePreloadContext
from repro.errors import ConfigurationError

LINE = params.LINE_SIZE
N_WORDS = 300


def plcache_machine(**kw):
    return Machine(MachineConfig(plcache=True, **kw))


def setup_ctx(machine=None):
    machine = machine or plcache_machine()
    ctx = PLCachePreloadContext(machine)
    base = machine.allocator.alloc_words(N_WORDS)
    for i in range(N_WORDS):
        machine.memory.write_word(base + 4 * i, 1000 + i)
    ds = ctx.register_ds(base, N_WORDS * 4, "arr")
    return ctx, base, ds


class TestFunctional:
    def test_requires_plcache_machine(self):
        with pytest.raises(ConfigurationError):
            PLCachePreloadContext(Machine(MachineConfig()))

    def test_register_pins_whole_ds(self):
        ctx, base, ds = setup_ctx()
        assert len(ctx.l1d.locked_lines()) == len(ds.lines)
        assert ctx.miss_exposure(ds) == 0

    def test_load_store_roundtrip(self):
        ctx, base, ds = setup_ctx()
        assert ctx.load(ds, base + 4 * 7) == 1007
        ctx.store(ds, base + 4 * 7, 42)
        assert ctx.load(ds, base + 4 * 7) == 42

    def test_pinned_loads_always_hit(self):
        ctx, base, ds = setup_ctx()
        before = ctx.machine.l1d.stats.misses
        for i in range(N_WORDS):
            ctx.load(ds, base + 4 * i)
        assert ctx.machine.l1d.stats.misses == before

    def test_unpin_releases_capacity(self):
        ctx, base, ds = setup_ctx()
        assert ctx.pinned_bytes() == len(ds.lines) * LINE
        ctx.unpin(ds)
        assert ctx.pinned_bytes() == 0

    def test_oversized_ds_cannot_fully_pin(self):
        machine = plcache_machine(l1d_size=4 * 1024, l1d_assoc=2)
        ctx = PLCachePreloadContext(machine)
        base = machine.allocator.alloc_words(4 * 1024)  # 16 KB > 4 KB L1
        for i in range(4 * 1024):
            machine.memory.write_word(base + 4 * i, i)
        ds = ctx.register_ds(base, 16 * 1024, "big")
        assert ctx.miss_exposure(ds) > 0  # the capacity pathology


class TestPerformance:
    def test_pl_access_is_single_hit(self):
        """Performance-wise PLcache is as good as it gets: one L1 hit."""
        ctx, base, ds = setup_ctx()
        before = ctx.machine.stats.cycles
        ctx.load(ds, base + 4 * 100)
        assert ctx.machine.stats.cycles - before == ctx.machine.l1d.latency


class TestSecurityGap:
    """The paper's critique, verified by the same checker the BIA passes."""

    @staticmethod
    def _run(ctx, secret):
        machine = ctx.machine
        base = machine.allocator.alloc_words(N_WORDS)
        for i in range(N_WORDS):
            machine.memory.write_word(base + 4 * i, i)
        ds = ctx.register_ds(base, N_WORDS * 4, "arr")
        # one secret-indexed load + one secret-indexed store
        ctx.load(ds, base + 4 * (secret % N_WORDS))
        ctx.store(ds, base + 4 * ((secret * 7) % N_WORDS), 1)

    def test_plcache_leaks_via_lru_and_dirty_bits(self):
        report = sanitize(
            lambda: PLCachePreloadContext(plcache_machine()),
            self._run,
            secrets=(1, 2, 3),
        )
        assert not report.clean

    def test_bia_passes_the_same_check(self):
        report = sanitize(
            lambda: BIAContext(Machine(MachineConfig())),
            self._run,
            secrets=(1, 2, 3),
        )
        assert report.clean, report.describe()


class TestFairnessGap:
    def test_co_runner_starves_in_pinned_sets(self):
        """Pinning a DS raises a co-running process's miss rate."""

        def co_runner_misses(pin: bool) -> int:
            machine = plcache_machine(l1d_size=4 * 1024, l1d_assoc=2)
            ctx = PLCachePreloadContext(machine)
            base = machine.allocator.alloc_words(512)  # 2 KB = half the L1
            for i in range(512):
                machine.memory.write_word(base + 4 * i, i)
            ds = ctx.register_ds(base, 2048, "pinned")
            if not pin:
                ctx.unpin(ds)
            # co-runner: two rounds over its own 4 KB working set
            co_base = 0x4000_0000
            misses = 0
            hit_latency = machine.l1d.latency
            for _ in range(2):
                for i in range(64):
                    latency = machine.attacker_load(co_base + i * LINE)
                    if latency > hit_latency:
                        misses += 1
            return misses

        assert co_runner_misses(pin=True) > co_runner_misses(pin=False)
