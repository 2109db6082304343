"""Multi-level cache hierarchy with Table-1 latencies.

The hierarchy walks an access down L1D -> L2 -> LLC -> DRAM, filling
the levels above a hit (so upper levels stay warm), writing dirty
victims back to the next level (or DRAM when the next level no longer
holds the line), and accumulating the latency of every level touched.

Two access paths exist beyond the normal one:

* ``start_level`` lets accesses *bypass* upper levels — the paper's
  L2-resident BIA requires CTLoad/CTStore and the subsequent DS
  accesses to skip the L1 (Sec. 4.2), and the LLC variant skips L1+L2
  (Sec. 6.4).
* ``bypass_to_dram`` sends an access straight to memory with no cache
  state change at all — the Sec. 6.5 granularity optimization for DSs
  that exceed the cache capacity.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import ne, sub
from typing import List, Optional

from repro.cache.prefetcher import NextLinePrefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigurationError
from repro.memory.dram import DRAM


class AccessResult:
    """Outcome of one line access through the hierarchy."""

    __slots__ = ("latency", "hit_level")

    def __init__(self, latency: int, hit_level: Optional[str]):
        #: cycles spent on this access (sum of levels touched)
        self.latency = latency
        #: name of the level that hit, or None for a DRAM access
        self.hit_level = hit_level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Access {self.hit_level or 'DRAM'} {self.latency}cy>"


class EvictResult:
    """Outcome of a targeted (attacker) eviction at one level.

    Truthy iff the line was present and evicted — existing callers that
    treated :meth:`CacheHierarchy.evict_line_from` as a bool keep
    working — while ``latency`` carries the dirty-write-back cost the
    eviction incurred (0 for clean or absent lines).  Evict+Time
    measurements must charge that latency: a dirty victim's write-back
    is exactly the timing signal the old bool return threw away.
    """

    __slots__ = ("evicted", "latency")

    def __init__(self, evicted: bool, latency: int = 0):
        self.evicted = evicted
        self.latency = latency

    def __bool__(self) -> bool:
        return self.evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Evict {'hit' if self.evicted else 'miss'} {self.latency}cy>"


class CacheHierarchy:
    """An ordered stack of caches backed by DRAM."""

    def __init__(
        self,
        levels: List[SetAssociativeCache],
        dram: DRAM,
        prefetcher: Optional[NextLinePrefetcher] = None,
    ) -> None:
        if not levels:
            raise ConfigurationError("hierarchy needs at least one cache level")
        names = [c.name for c in levels]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate cache level names: {names}")
        self.levels = levels
        self.dram = dram
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.bind(self)

    # -- lookups -----------------------------------------------------------------

    def level_index(self, name: str) -> int:
        for i, cache in enumerate(self.levels):
            if cache.name == name:
                return i
        raise ConfigurationError(f"no cache level named {name!r}")

    def level(self, name: str) -> SetAssociativeCache:
        return self.levels[self.level_index(name)]

    # -- victim handling -----------------------------------------------------------

    def _write_back_victim(self, level_idx: int, victim) -> int:
        """Propagate an evicted line; returns extra latency incurred.

        Dirty victims are written to the next level if it still holds
        the line (mark dirty there), otherwise to DRAM.  Clean victims
        vanish silently.
        """
        if victim is None or not victim.dirty:
            return 0
        for lower in self.levels[level_idx + 1 :]:
            if lower.set_dirty(victim.line_addr):
                return 0
        return self.dram.write_line(victim.line_addr)

    # -- main access paths ------------------------------------------------------------

    def read_line(
        self,
        line_addr: int,
        start_level: int = 0,
        observable: bool = True,
        _is_prefetch: bool = False,
    ) -> AccessResult:
        """Demand-read ``line_addr``; fills every level from DRAM up."""
        # Fast path: hit at the start level (the overwhelmingly common
        # case for warm workloads) — no fill loop, no extra bookkeeping.
        first = self.levels[start_level]
        line = first.access(line_addr, observable)
        if line is not None:
            return AccessResult(first.latency, first.name)
        extra, hit_level = self.read_miss_fill(
            line_addr, start_level, observable, _is_prefetch
        )
        return AccessResult(first.latency + extra, hit_level)

    def read_miss_fill(
        self,
        line_addr: int,
        start_level: int = 0,
        observable: bool = True,
        _is_prefetch: bool = False,
    ):
        """Continue a read whose start-level miss is already recorded.

        This is the miss half of :meth:`read_line`, exposed so batched
        callers (``read_lines`` and the machine's fused RMW kernel) can
        probe the start level themselves and only fall into this walk
        on a miss.  Returns ``(extra_latency, hit_level)`` where
        ``extra_latency`` excludes the start level's own latency.
        """
        levels = self.levels
        latency = 0
        for i in range(start_level + 1, len(levels)):
            cache = levels[i]
            latency += cache.latency
            line = cache.access(line_addr, observable)
            if line is not None:
                break
        else:
            cache = None
            i = len(levels)
            latency += self.dram.read_line(line_addr)
        # Fill every level above the hit (all of them from DRAM); only a
        # dirty victim costs a write-back.
        for j in range(i - 1, start_level - 1, -1):
            victim = levels[j].fill(line_addr)
            if victim is not None and victim.dirty:
                latency += self._write_back_victim(j, victim)
        if cache is not None:
            return latency, cache.name
        if self.prefetcher is not None and not _is_prefetch:
            self.prefetcher.on_demand_miss(line_addr, start_level)
        return latency, None

    def read_lines(
        self, line_addrs, start_level: int = 0, set_indices=None
    ) -> int:
        """Batched :meth:`read_line`; returns the summed latency.

        Observationally identical to the scalar loop: hit runs are
        processed inside the start level's ``access_lines`` (locals
        bound once per run), and each miss falls back to the exact
        scalar miss walk before the batch resumes.  The batch computes
        its set indices once (unless the caller supplied them), so each
        resume of the kernel costs O(run).  A start level with a
        per-event listener refuses the batch
        (:meth:`~repro.cache.set_assoc.SetAssociativeCache.access_lines`);
        listeners below it see the miss walk's scalar events.

        The start level's profile is charged once, one access per
        line (:meth:`~repro.cache.set_assoc.CacheStats.charge`): the
        miss walk records only the levels below.  A caller-supplied
        ``set_indices`` tuple (a DS sweep's cached decomposition) is
        charged without being counted until the profile is read.
        """
        first = self.levels[start_level]
        n = len(line_addrs)
        latency = n * first.latency
        access_lines = first.access_lines
        if set_indices is None:
            set_indices = first.set_indices(line_addrs)
        i = access_lines(line_addrs, 0, set_indices)
        # After the first run: a refused (per-event) batch charges none.
        first.stats.charge(set_indices)
        while i < n:
            latency += self.read_miss_fill(line_addrs[i], start_level)[0]
            i = access_lines(line_addrs, i + 1, set_indices)
        return latency

    def write_lines(self, line_addrs) -> int:
        """Batched :meth:`write_line` at the L1d, where every store
        batch starts; returns the summed latency.

        Consecutive writes to one line (a same-line run: 16 per line
        for an array of 4-byte words) go to ``access_lines`` as one run
        head and its count, so a resident run costs one lookup; a
        hit-run listener such as an L1d BIA gets each all-hit stretch
        of run heads in one call, before the fill that ends it.  The
        run heads' set indices are computed once, so each resume of the
        kernel costs O(run).  An L1d with a per-event listener refuses
        the batch, as in :meth:`read_lines`.

        The L1d's profile is charged once per batch, ``counts[i]``
        accesses to run head ``i``, before the loop below spends the
        counts on the run's remaining accesses.
        """
        first = self.levels[0]
        n = len(line_addrs)
        latency = n * first.latency
        access_lines = first.access_lines
        set_dirty = first.set_dirty
        counts = None
        if n > 1:
            heads = [0]
            heads += compress(
                range(1, n),
                map(ne, line_addrs, islice(line_addrs, 1, None)),
            )
            if len(heads) < n:
                counts = list(map(sub, heads[1:] + [n], heads))
                line_addrs = [line_addrs[h] for h in heads]
                n = len(heads)
        set_indices = first.set_indices(line_addrs)
        i = access_lines(line_addrs, 0, set_indices, True, counts)
        first.stats.charge(set_indices, 1 if counts is None else counts)
        while i < n:
            line_addr = line_addrs[i]
            latency += self.read_miss_fill(line_addr)[0]
            set_dirty(line_addr)
            # The miss was the run's first access; the rest of the run
            # resumes at the same head.
            if counts is None or counts[i] == 1:
                i += 1
            else:
                counts[i] -= 1
            i = access_lines(line_addrs, i, set_indices, True, counts)
        return latency

    def write_line(self, line_addr: int, start_level: int = 0) -> AccessResult:
        """Write-allocate write: read path, then dirty at ``start_level``."""
        result = self.read_line(line_addr, start_level)
        self.levels[start_level].set_dirty(line_addr)
        return result

    def read_line_uncached(self, line_addr: int) -> AccessResult:
        """Sec. 6.5 DRAM bypass: no cache state change at any level."""
        return AccessResult(self.dram.read_line(line_addr), None)

    def write_line_uncached(self, line_addr: int) -> AccessResult:
        """Sec. 6.5 DRAM bypass for stores."""
        return AccessResult(self.dram.write_line(line_addr), None)

    # -- coherence-style operations ------------------------------------------------

    def flush_line(self, line_addr: int) -> int:
        """clflush semantics: invalidate everywhere, write back if dirty.

        Returns the latency (DRAM write if any copy was dirty).  Used
        by the Flush+Reload attacker model.
        """
        was_dirty = False
        for cache in self.levels:
            line = cache.invalidate(line_addr)
            if line is not None and line.dirty:
                was_dirty = True
        return self.dram.write_line(line_addr) if was_dirty else 0

    def evict_line_from(self, name: str, line_addr: int) -> EvictResult:
        """Invalidate ``line_addr`` at one level only (attacker eviction).

        Dirty victims propagate exactly like capacity evictions.  The
        :class:`EvictResult` is truthy iff the line was present and
        carries the write-back latency the eviction incurred, so
        Evict+Time attackers observe dirty-line cost instead of it
        being silently dropped.
        """
        idx = self.level_index(name)
        line = self.levels[idx].invalidate(line_addr)
        if line is None:
            return EvictResult(False)
        return EvictResult(True, self._write_back_victim(idx, line))

    # -- introspection ------------------------------------------------------------------

    def where(self, line_addr: int) -> List[str]:
        """Names of the levels currently holding ``line_addr``."""
        return [c.name for c in self.levels if line_addr in c]

    def reset_stats(self) -> None:
        for cache in self.levels:
            cache.stats.reset()
        self.dram.stats.reset()
