"""Multi-core sharing: a remote attacker core on the same LLC.

The threat model (Sec. 2.4) allows the attacker and the victim to run
"on different cores, in which case they only share the LLC".
:class:`RemoteCore` gives the attacker its own private L1/L2 stacked
on the *victim machine's* LLC and DRAM, so cross-core attacks
(LLC Prime+Probe, cross-core Flush+Reload) can be driven end to end.

Inclusivity: the paper stipulates nothing ("caches can be inclusive,
non-inclusive, or exclusive") — the simulator defaults to
non-inclusive.  Cross-core eviction attacks need an *inclusive* LLC
(evicting a line from the LLC must force it out of the other core's
private caches); building the victim machine with
``MachineConfig(inclusive_llc=True)`` enables that back-invalidation,
and :class:`RemoteCore` automatically enrols its private caches in it.
"""

from __future__ import annotations

from typing import List

from repro.cache.events import CacheListener
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.machine import Machine
from repro.memory import address as addr_math


class BackInvalidator(CacheListener):
    """Inclusive-LLC enforcement: LLC evictions purge private copies."""

    def __init__(self) -> None:
        self._private: List[SetAssociativeCache] = []

    def register(self, cache: SetAssociativeCache) -> None:
        if cache not in self._private:
            self._private.append(cache)

    def _purge(self, line_addr: int) -> None:
        for cache in self._private:
            is_locked = getattr(cache, "is_locked", None)
            if is_locked is not None and is_locked(line_addr):
                # A PLcache pin survives back-invalidation (a real
                # inclusive design would have pinned the LLC copy too).
                continue
            cache.invalidate(line_addr)

    def on_evict(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        self._purge(line_addr)

    def on_invalidate(self, cache_name: str, line_addr: int) -> None:
        self._purge(line_addr)


class RemoteCore:
    """An attacker core: private L1/L2 over the victim's LLC + DRAM.

    The private caches have the victim machine's L1d and L2 geometry
    (``machine.config``): the cores are identical.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        config = machine.config
        self.l1 = SetAssociativeCache(
            "R1.L1D", config.l1d_size, config.l1d_assoc, config.l1d_latency
        )
        self.l2 = SetAssociativeCache(
            "R1.L2", config.l2_size, config.l2_assoc, config.l2_latency
        )
        self.hierarchy = CacheHierarchy(
            [self.l1, self.l2, machine.llc], machine.dram
        )
        if machine.back_invalidator is not None:
            machine.back_invalidator.register(self.l1)
            machine.back_invalidator.register(self.l2)

    # -- attacker accesses (never counted in the victim's stats) ----------------

    def load(self, addr: int) -> int:
        """Demand load through this core's full stack; returns latency."""
        result = self.hierarchy.read_line(
            addr_math.line_base(addr), observable=False
        )
        return result.latency

    def llc_load(self, addr: int) -> int:
        """Load that bypasses this core's private caches.

        The standard modelling shortcut for an LLC Prime+Probe
        attacker, which in reality uses eviction sets larger than its
        private caches so its probes always reach the LLC.
        """
        result = self.hierarchy.read_line(
            addr_math.line_base(addr),
            start_level=self.hierarchy.level_index(self.machine.llc.name),
            observable=False,
        )
        return result.latency

    def flush(self, addr: int) -> int:
        """Cross-core clflush: global invalidation of the line.

        Returns the flush latency: the DRAM write-back cost if any
        copy anywhere — the attacker's stack, the shared LLC, or the
        victim's private caches purged by coherence — was dirty.  A
        line is written back once even when several copies are dirty
        (they are the same line).
        """
        line_addr = addr_math.line_base(addr)
        latency = self.hierarchy.flush_line(line_addr)  # own L1/L2 + LLC
        # Coherence also purges the victim's private copies.
        victim_dirty = False
        for cache in (self.machine.l1d, self.machine.l2):
            line = cache.invalidate(line_addr)
            if line is not None and line.dirty:
                victim_dirty = True
        if victim_dirty and not latency:
            latency = self.machine.dram.write_line(line_addr)
        return latency

    def llc_hit_latency(self) -> int:
        """Latency threshold separating LLC hits from DRAM fetches."""
        return self.machine.llc.latency
