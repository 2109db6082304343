"""Next-line hardware prefetcher.

The paper's Figure 6(d) scenario shows why CTStore's "write only if
dirty" rule matters: a prefetcher may bring a line into the cache
*between* the algorithm's CTLoad and CTStore, but it brings the line
in *clean*, so CTStore still refuses to write fake data.  This model
exists chiefly so the test suite can reproduce that interleaving
against real hardware-initiated fills; experiments run with the
prefetcher disabled (gem5's default for the paper's config).

The prefetcher reacts to demand misses that reached DRAM and issues a
read for the next sequential line.  Prefetch fills are clean and are
not re-triggering (a prefetch miss never prefetches).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import params

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.hierarchy import CacheHierarchy


class NextLinePrefetcher:
    """Prefetch line N+1 on a demand miss to line N."""

    def __init__(self) -> None:
        self.issued = 0
        self._hierarchy: Optional["CacheHierarchy"] = None

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        self._hierarchy = hierarchy

    def on_demand_miss(self, line_addr: int, start_level: int) -> None:
        """Hierarchy callback after a demand access went to DRAM."""
        if self._hierarchy is None:
            return
        target = line_addr + params.LINE_SIZE
        if target in self._hierarchy.levels[start_level]:
            return
        self.issued += 1
        self._hierarchy.read_line(
            target,
            start_level=start_level,
            observable=False,
            _is_prefetch=True,
        )
