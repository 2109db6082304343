"""BIA (BItmAp) — the paper's proposed hardware structure (Sec. 4.2).

The BIA is a small set-associative table.  Each entry is tagged with a
page index and holds two 64-bit bitmaps over the 64 lines of that
page: *existence* (line valid in the monitored cache) and *dirtiness*
(line dirty there).  The structure

* is consulted/allocated by CTLoad/CTStore (a BIA miss allocates an
  entry initialized to all zeros — a deliberate under-approximation,
  safe because the algorithms treat a zero bit as "must fetch"), and
* passively monitors the cache it is attached to via the cache's event
  bus: hits and fills set existence bits, evictions/invalidations clear
  both bits, dirty-bit transitions update dirtiness.  The BIA takes
  hit runs: a run kernel's all-hit stretch arrives as one
  :meth:`BIA.on_hit_run` call, which sets each line's existence bit
  and copies its end-of-run dirty bit, the net effect of the run's hit
  and dirty events.

Monitor updates only touch *already-allocated* entries, and CT-op
probes never feed back into the bitmaps.  Both restrictions preserve
the security induction of Sec. 5.3: every source of bitmap mutation is
either secret-independent cache traffic or zero-initialization, so the
bitmaps a CT op returns are themselves secret-independent.

Invariant (tested property-based): existence is always a *subset* of
the true cache contents, and dirtiness a subset of both existence and
the true dirty lines.  The BIA may under-report (costing performance,
never correctness or security).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import params
from repro.cache.events import CacheListener
from repro.cache.replacement import LRUPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigurationError


@dataclass(slots=True)
class BIAEntry:
    """One bitmap entry: a management group's existence/dirtiness bits.

    ``page_idx`` holds the *group* index — a page index under the
    default M=12 granularity, a smaller-grained group index for the
    Sec. 6.4 LLC variant.
    """

    page_idx: int
    existence: int = 0
    dirtiness: int = 0

    def set_exist(self, bit: int) -> None:
        self.existence |= 1 << bit

    def clear_exist(self, bit: int) -> None:
        self.existence &= ~(1 << bit)
        self.dirtiness &= ~(1 << bit)

    def set_dirty(self, bit: int) -> None:
        self.existence |= 1 << bit
        self.dirtiness |= 1 << bit

    def clear_dirty(self, bit: int) -> None:
        self.dirtiness &= ~(1 << bit)

    def clone(self) -> "BIAEntry":
        return BIAEntry(self.page_idx, self.existence, self.dirtiness)


@dataclass(slots=True)
class BIAStats:
    """BIA activity counters."""

    lookups: int = 0
    hits: int = 0
    allocations: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.allocations = 0
        self.evictions = 0

    def clone(self) -> "BIAStats":
        return BIAStats(
            lookups=self.lookups,
            hits=self.hits,
            allocations=self.allocations,
            evictions=self.evictions,
        )

    def load_from(self, other: "BIAStats") -> None:
        self.lookups = other.lookups
        self.hits = other.hits
        self.allocations = other.allocations
        self.evictions = other.evictions


class BIA(CacheListener):
    """The bitmap table, attached to one cache level.

    It takes hit runs: a run kernel's all-hit stretch changes no
    residency and cannot allocate or evict an entry (only CT ops do),
    so applying the stretch's net effect once, before the fill that
    ends it, leaves the same table as one :meth:`on_hit` and
    :meth:`on_dirty` per access.

    Each table set is an :class:`~repro.cache.replacement.LRUPolicy`,
    the same one-object set the caches use: its ways hold
    :class:`BIAEntry` items and its key index (``by_addr``) maps page
    (group) indices to ways.

    The BIA is on its cache's event bus only while it holds a live
    entry (:meth:`_sync_subscription`, called by :meth:`access` and
    :meth:`restore_state`), so every monitor callback it receives
    finds a non-empty table and none tests for an empty one.

    Parameters
    ----------
    entries / assoc:
        Table geometry.  The paper's 1 KiB BIA holds 64 entries of
        16 bytes of bitmap payload; we default to 64 entries, 8-way.
    latency:
        Lookup latency in cycles (Table 1: 1 cycle).
    group_bits:
        DS-management granularity ``M``.  12 (page-granular, 64-bit
        bitmaps) for the L1d/L2 designs; Sec. 6.4's LLC-resident BIA
        shrinks it to ``LS_Hash`` when ``6 < LS_Hash < 12``, giving
        ``2**(M-6)``-bit bitmaps.
    """

    def __init__(
        self,
        entries: int = 64,
        assoc: int = 8,
        latency: int = 1,
        group_bits: int = params.PAGE_BITS,
    ) -> None:
        if entries <= 0 or assoc <= 0 or latency <= 0:
            raise ConfigurationError("BIA entries/assoc/latency must be positive")
        if group_bits <= params.LINE_BITS:
            raise ConfigurationError(
                f"BIA group_bits {group_bits} must exceed line bits "
                f"{params.LINE_BITS}"
            )
        if entries % assoc:
            raise ConfigurationError(
                f"BIA entries {entries} not divisible by assoc {assoc}"
            )
        num_sets = entries // assoc
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"BIA set count {num_sets} is not a power of two"
            )
        self.entries = entries
        self.assoc = assoc
        self.latency = latency
        self.group_bits = group_bits
        self.lines_per_group = 1 << (group_bits - params.LINE_BITS)
        self.num_sets = num_sets
        self._sets = [LRUPolicy(assoc) for _ in range(num_sets)]
        self.stats = BIAStats()
        self._monitored: Optional[str] = None
        self._monitored_bus = None
        #: the monitored cache's tag lookup (end-of-run dirty bits)
        self._monitored_lookup = None
        self._subscribed = False
        #: number of live table entries.  Monitor updates only ever
        #: touch already-allocated entries, so while the table is empty
        #: (every run that never issues a CT op) the BIA stays off its
        #: cache's bus — a large hot-path win for the insecure and
        #: software-CT schemes, whose caches it would otherwise observe.
        self._live_entries = 0
        #: bitmask for line-in-group extraction (inlined addr math).
        self._line_in_group_mask = self.lines_per_group - 1

    # -- attachment ------------------------------------------------------------

    def attach(self, cache: SetAssociativeCache) -> None:
        """Monitor ``cache``: the BIA mirrors its residency/dirtiness.

        The event-bus subscription is *lazy*: while the table is empty
        every monitor callback would return immediately, so the BIA
        stays off the bus entirely — keeping the cache's
        ``has_listeners`` hot-path gate effective for runs that never
        issue a CT op (the insecure and software-CT schemes) — and
        subscribes on the first entry allocation.  Observationally
        identical: events delivered to an empty table are ignored.
        """
        self._monitored = cache.name
        self._monitored_bus = cache.events
        self._monitored_lookup = cache.lookup
        self._sync_subscription()

    def _sync_subscription(self) -> None:
        """Keep the bus subscription in step with table liveness."""
        bus = self._monitored_bus
        if bus is None:
            return
        want = self._live_entries > 0
        if want and not self._subscribed:
            bus.subscribe(self)
            self._subscribed = True
        elif not want and self._subscribed:
            bus.unsubscribe(self)
            self._subscribed = False

    @property
    def monitored_cache(self) -> Optional[str]:
        return self._monitored

    # -- table access -------------------------------------------------------------

    def _set_of(self, page_idx: int) -> LRUPolicy:
        return self._sets[page_idx % self.num_sets]

    def lookup(self, page_idx: int) -> Optional[BIAEntry]:
        """Pure lookup (monitor path): no allocation, no LRU update."""
        bset = self._set_of(page_idx)
        way = bset.by_addr.get(page_idx)
        return None if way is None else bset.ways[way]

    def access(self, page_idx: int, count: int = 1) -> BIAEntry:
        """CT-op lookup: allocate a zeroed entry on miss, update LRU.

        ``count`` charges that many lookups of ``page_idx`` in a row (a
        same-group run of CT ops): the first may allocate, the other
        ``count - 1`` are hits, exactly as ``count`` calls would be.
        """
        bset = self._sets[page_idx % self.num_sets]
        stats = self.stats
        stats.lookups += count
        way = bset.by_addr.get(page_idx)
        if way is not None:
            stats.hits += count
            bset.touch_n(way, count)
            return bset.ways[way]
        victim_way = bset.victim()
        victim = bset.ways[victim_way]
        if victim is not None:
            del bset.by_addr[victim.page_idx]
            self.stats.evictions += 1
            self._live_entries -= 1
        entry = BIAEntry(page_idx)
        bset.ways[victim_way] = entry
        bset.by_addr[page_idx] = victim_way
        bset.on_fill(victim_way)
        if count > 1:
            stats.hits += count - 1
            bset.touch_n(victim_way, count - 1)
        self.stats.allocations += 1
        self._live_entries += 1
        if not self._subscribed:
            self._sync_subscription()
        return entry

    # -- cache monitor (CacheListener) ------------------------------------------

    def _entry_for_line(self, cache_name: str, line_addr: int):
        if cache_name != self._monitored:
            return None, 0
        # Inlined group_index / line_in_group (hot monitor path).
        group_idx = line_addr >> self.group_bits
        bset = self._sets[group_idx % self.num_sets]
        way = bset.by_addr.get(group_idx)
        if way is None:
            return None, 0
        return (
            bset.ways[way],
            (line_addr >> params.LINE_BITS) & self._line_in_group_mask,
        )

    def on_hit(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.set_exist(bit)
        if dirty:
            entry.set_dirty(bit)
        else:
            entry.clear_dirty(bit)

    def on_hit_run(self, cache_name: str, line_addrs) -> None:
        """Net effect of one all-hit run: every line whose group has an
        entry gets its existence bit, and its dirtiness bit becomes the
        line's dirty bit at the end of the run."""
        if cache_name != self._monitored:
            return
        lookup = self._monitored_lookup
        group_bits = self.group_bits
        sets = self._sets
        num_sets = self.num_sets
        in_group = self._line_in_group_mask
        line_bits = params.LINE_BITS
        group = entry = None
        for line_addr in line_addrs:
            group_idx = line_addr >> group_bits
            if group_idx != group:
                group = group_idx
                bset = sets[group_idx % num_sets]
                way = bset.by_addr.get(group_idx)
                entry = None if way is None else bset.ways[way]
            if entry is None:
                continue
            bit = 1 << ((line_addr >> line_bits) & in_group)
            entry.existence |= bit
            if lookup(line_addr).dirty:
                entry.dirtiness |= bit
            else:
                entry.dirtiness &= ~bit

    def on_fill(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.set_exist(bit)
        if dirty:
            entry.set_dirty(bit)

    def on_evict(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.clear_exist(bit)

    def on_invalidate(self, cache_name: str, line_addr: int) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.clear_exist(bit)

    def on_dirty(self, cache_name: str, line_addr: int) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.set_dirty(bit)

    def on_clean(self, cache_name: str, line_addr: int) -> None:
        entry, bit = self._entry_for_line(cache_name, line_addr)
        if entry is None:
            return
        entry.clear_dirty(bit)

    # -- state capture / restore (machine fork support) ------------------------------

    def capture_state(self):
        """Snapshot the bitmap table, LRU state and counters.

        Only non-empty sets are recorded, each as its own clone: a set
        that never held an entry is still in its built state.
        """
        sets = [
            (set_idx, bset.clone())
            for set_idx, bset in enumerate(self._sets)
            if bset.by_addr
        ]
        return (sets, self.stats.clone(), self._live_entries)

    def restore_state(self, state) -> None:
        """Install a snapshot from :meth:`capture_state`.

        Restoring never rewires *which* cache is monitored, but it does
        re-sync the lazy bus subscription with the restored table
        liveness (an empty restored table goes back off the bus).
        """
        sets_state, stats, live_entries = state
        assoc = self.assoc
        fresh = [LRUPolicy(assoc) for _ in range(self.num_sets)]
        for set_idx, bset in sets_state:
            fresh[set_idx] = bset.clone()
        self._sets = fresh
        self.stats.load_from(stats)
        self._live_entries = live_entries
        self._sync_subscription()

    # -- verification ---------------------------------------------------------------

    def resident_pages(self) -> List[int]:
        """Page indices of all allocated entries (sorted, for tests)."""
        out: List[int] = []
        for bset in self._sets:
            out.extend(bset.by_addr)
        return sorted(out)

    def check_subset_of(self, cache: SetAssociativeCache) -> bool:
        """Verify the subset invariant against the true cache contents."""
        for bset in self._sets:
            for entry in bset.ways:
                if entry is None:
                    continue
                for bit in range(self.lines_per_group):
                    mask = 1 << bit
                    line_addr = (entry.page_idx << self.group_bits) + (
                        bit << params.LINE_BITS
                    )
                    line = cache.lookup(line_addr)
                    if entry.existence & mask and line is None:
                        return False
                    if entry.dirtiness & mask and (
                        line is None or not line.dirty
                    ):
                        return False
        return True
