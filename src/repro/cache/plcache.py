"""PLcache: a partition-locked cache (Wang & Lee [44]; paper Sec. 6.1).

PLcache lets software *lock* individual lines: a locked line is never
chosen as an eviction victim.  Combined with preloading
(PLcache+preload [19]), a protected program pins its whole dataflow
linearization set so every secret-dependent access hits — one access
per operation, like the BIA, but with the drawbacks the paper calls
out and this model makes measurable:

* **security** — locking hides *misses*, but secret-dependent hits
  still update LRU state and dirty bits; once lines are unpinned, the
  replacement and write-back behaviour replays the secret
  (`tests/ct/test_plcache_ctx.py` demonstrates the leak with the same
  trace-equivalence checker that passes the BIA);
* **fairness** — pinned ways shrink the effective capacity for every
  co-running process (the ablation benchmark measures the co-runner's
  miss rate against a BIA machine).

Semantics of a fill into a set whose every way is locked: the request
is serviced *without caching* (the line is not installed), matching
the original design's conflict handling.
"""

from __future__ import annotations

from typing import List, Optional

from repro import params
from repro.cache.line import CacheLine
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ProtocolError


class PartitionLockedCache(SetAssociativeCache):
    """A set-associative cache with per-line locking."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._locked: List[List[bool]] = [
            [False] * self.assoc for _ in range(self.num_sets)
        ]
        self.uncached_fills = 0

    # -- locking API ----------------------------------------------------------

    def lock(self, line_addr: int) -> bool:
        """Pin a resident line; returns False if not resident."""
        set_idx = self.set_index(line_addr)
        cset = self._sets[set_idx]
        way = cset.by_addr.get(line_addr) if cset is not None else None
        if way is None:
            return False
        self._locked[set_idx][way] = True
        return True

    def unlock(self, line_addr: int) -> bool:
        """Unpin a line; returns False if not resident."""
        set_idx = self.set_index(line_addr)
        cset = self._sets[set_idx]
        way = cset.by_addr.get(line_addr) if cset is not None else None
        if way is None:
            return False
        self._locked[set_idx][way] = False
        return True

    def unlock_all(self) -> int:
        """Release every lock; returns the number released."""
        count = 0
        for set_idx in range(self.num_sets):
            for way in range(self.assoc):
                if self._locked[set_idx][way]:
                    self._locked[set_idx][way] = False
                    count += 1
        return count

    def is_locked(self, line_addr: int) -> bool:
        set_idx = self.set_index(line_addr)
        cset = self._sets[set_idx]
        way = cset.by_addr.get(line_addr) if cset is not None else None
        return way is not None and self._locked[set_idx][way]

    def locked_lines(self) -> List[int]:
        """Addresses of all pinned lines (sorted)."""
        out = []
        for set_idx, cset in enumerate(self._sets):
            if cset is None:
                continue
            for addr, way in cset.by_addr.items():
                if self._locked[set_idx][way]:
                    out.append(addr)
        return sorted(out)

    # -- overridden fill: locked ways are never victims --------------------------

    def fill(self, line_addr: int, dirty: bool = False) -> Optional[CacheLine]:
        set_idx = self.set_index(line_addr)
        cset = self._set_at(set_idx)
        existing_way = cset.by_addr.get(line_addr)
        if existing_way is not None:
            return super().fill(line_addr, dirty=dirty)
        allowed = [
            way for way in range(self.assoc) if not self._locked[set_idx][way]
        ]
        victim_way = cset.victim_among(allowed)
        if victim_way is None:
            # Every way is pinned: serve the request uncached.
            self.uncached_fills += 1
            return None
        victim = cset.ways[victim_way]
        if victim is not None:
            del cset.by_addr[victim.line_addr]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            self.events.evict(victim.line_addr, victim.dirty)
        cset.ways[victim_way] = CacheLine(line_addr, dirty)
        cset.by_addr[line_addr] = victim_way
        cset.on_fill(victim_way)
        self.stats.fills += 1
        self.events.fill(line_addr, dirty)
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Locked lines resist invalidation from attacker evictions.

        (A coherence flush in a real system would still force them
        out; use :meth:`unlock` first to model that.)
        """
        if self.is_locked(line_addr):
            raise ProtocolError(
                f"line {line_addr:#x} is locked; unlock before invalidating"
            )
        return super().invalidate(line_addr)

    # -- state capture / restore ------------------------------------------------------

    def _capture_extra(self):
        return ([list(row) for row in self._locked], self.uncached_fills)

    def _restore_extra(self, extra) -> None:
        if extra is None:  # snapshot taken from a plain cache
            return
        locked, uncached = extra
        self._locked = [list(row) for row in locked]
        self.uncached_fills = uncached

    # -- pinning helpers -------------------------------------------------------------

    def pinnable_lines(self, base: int, size: int) -> int:
        """How many of the range's lines can be pinned at once.

        Bounded per set by the associativity minus one (pinning every
        way of a set would starve all other users of that set — the
        fairness problem in its extreme form; we still allow it, this
        helper just reports the safe bound).
        """
        demand = {}
        for line in range(
            base // params.LINE_SIZE * params.LINE_SIZE,
            base + size,
            params.LINE_SIZE,
        ):
            idx = self.set_index(line)
            demand[idx] = demand.get(idx, 0) + 1
        return sum(min(d, self.assoc) for d in demand.values())
