"""CTLoad / CTStore micro-op semantics (paper Sec. 4.1).

Both micro-ops are *non-state-changing* with respect to the cache:

* they perform a tag lookup at the BIA's cache level only — a miss is
  **not** forwarded to the next level and causes **no** fill;
* a hit does **not** update the replacement state (the Sec. 3.2 rule
  that hides them from replacement side channels);
* CTStore writes only when the line is *already dirty*, so it never
  creates a new dirty line (and never corrupts memory with the fake
  data a missed CTLoad returned — the Fig. 6 race cases);
* alongside the probe, the page's BIA entry is consulted (allocated
  zero-initialized on a BIA miss) and its existence/dirtiness bitmap
  returned.

The data path uses the authoritative backing memory: in this simulator
a resident line's data always equals memory's (see
:mod:`repro.cache.line`), so "read the word from the cache" is "read
the word from memory, but only if the line is resident".
"""

from __future__ import annotations

from typing import Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.core.bia import BIA
from repro.memory.backing import MainMemory
from repro.params import LINE_BASE_MASK


class CTOps:
    """Executable CTLoad/CTStore bound to one machine's components."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        bia: BIA,
        memory: MainMemory,
        bia_level: str,
    ) -> None:
        self.hierarchy = hierarchy
        self.bia = bia
        self.memory = memory
        self.bia_level = bia_level
        self._cache = hierarchy.level(bia_level)
        #: index of the BIA's level; DS accesses in the algorithms must
        #: start here (bypassing upper levels) for security (Sec. 4.2).
        self.start_level = hierarchy.level_index(bia_level)
        #: optional callback(line_addr) recording interconnect traffic
        #: of CT-op probes (LLC-resident BIA, Sec. 6.4) — a CT op sends
        #: a request to the target slice even though it changes no
        #: cache state, so the slice it travels to is observable.
        self.traffic_hook = None

    def ctload(self, addr: int) -> Tuple[int, int, int]:
        """``CTLoad``: returns ``(data, existence_bitmap, latency)``.

        ``data`` is the requested word if the line is resident at the
        BIA's level, else the fake value 0.  ``existence_bitmap`` is
        the 64-bit BIA existence word for ``addr``'s page.
        """
        line_addr = addr & LINE_BASE_MASK
        bia = self.bia
        line = self._cache.lookup(line_addr)  # pure probe: no state change
        data = self.memory.read_word(addr) if line is not None else 0
        entry = bia.access(addr >> bia.group_bits)
        latency = self._cache.latency + bia.latency
        if self.traffic_hook is not None:
            self.traffic_hook(line_addr)
        return data, entry.existence, latency

    def ctload_words(self, addrs):
        """``ctload`` over non-empty ``addrs``: ``(data, last_existence,
        summed_latency)``.

        CTLoad is a pure probe, so the batch does every tag lookup and
        word read first; then each run of consecutive addresses in one
        management group makes one counted :meth:`BIA.access`, which
        allocates, evicts and touches exactly as one access per address
        would.  No probe traffic is recorded: callers with a
        ``traffic_hook`` use :meth:`ctload` per address.
        """
        lookup = self._cache.lookup
        read = self.memory.read_word
        mask = LINE_BASE_MASK
        data = [read(a) if lookup(a & mask) is not None else 0 for a in addrs]
        bia = self.bia
        access = bia.access
        shift = bia.group_bits
        groups = [a >> shift for a in addrs]
        n = len(groups)
        i = 0
        while i < n:
            group = groups[i]
            j = i + 1
            while j < n and groups[j] == group:
                j += 1
            entry = access(group, j - i)
            i = j
        latency = n * (self._cache.latency + bia.latency)
        return data, entry.existence, latency

    def ctstore(self, addr: int, data: int) -> Tuple[int, int]:
        """``CTStore``: returns ``(dirtiness_bitmap, latency)``.

        The write commits only if ``addr``'s line is resident *and
        dirty* at the BIA's level; otherwise it does nothing (paper:
        "DO NOTHING").  The line's dirty bit is unchanged either way,
        so no new observable state is created.
        """
        line_addr = addr & LINE_BASE_MASK
        bia = self.bia
        line = self._cache.lookup(line_addr)  # pure probe: no state change
        if line is not None and line.dirty:
            self.memory.write_word(addr, data)
        entry = bia.access(addr >> bia.group_bits)
        latency = self._cache.latency + bia.latency
        if self.traffic_hook is not None:
            self.traffic_hook(line_addr)
        return entry.dirtiness, latency
