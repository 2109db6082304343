"""Set-associative write-back cache model (metadata-level).

One :class:`SetAssociativeCache` models one level of the hierarchy.
It tracks which lines are resident and dirty, fires events through its
:class:`~repro.cache.events.EventBus`, chooses victims through a
pluggable replacement policy, and keeps the statistics every
experiment consumes (hits, misses, per-set access counts).  Each set
is one object, an instance of the policy class
(:mod:`repro.cache.replacement`): its ways, its line address -> way
index and its ranking state, built at the set's first fill.

Two paper-specific behaviours live here:

* Every hit moves the line in the replacement order.  The Sec. 3.2
  rule ("do not update the LRU bit if the access is secret-relevant")
  is carried by CTLoad/CTStore, whose probes are pure :meth:`lookup`
  calls that change no state at all; every demand access that reaches
  :meth:`access` is public once the program is linearized.
* ``observable`` controls whether a scalar :meth:`access` is counted
  in the per-set access histogram used by the Figure 10 security test.
  Attacker, prefetch and eviction-set probes pass ``False``; victim
  loads and stores are counted, and every access of a batch is charged
  once per batch by the batch's owner (:meth:`CacheStats.charge`).
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import params
from repro.cache.events import EventBus
from repro.cache.line import CacheLine
from repro.cache.replacement import LRUPolicy, ReplacementPolicy, policy_factory
from repro.errors import ConfigurationError, ProtocolError


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache level.

    ``slots=True``: two to four of these counters move on every
    simulated access; fixed-offset attribute writes keep the per-access
    accounting cheap.

    The per-set access profile, :attr:`set_accesses`, is kept in two
    parts.  ``counted`` is a plain dict of set index -> accesses: an
    observable scalar :meth:`SetAssociativeCache.access` adds one
    there, and a batch is charged there by its owner (:meth:`charge`).
    ``pending`` holds the charges of DS sweeps that are not counted
    yet: the sweep's set-index tuple and how many times it was
    charged, expanded into ``counted`` only when the profile is read
    (:attr:`set_accesses`), cloned or loaded, and dropped by
    :meth:`reset`.  Counts add, so the expansion order changes only
    the dict's key order, which no reader depends on.
    """

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    #: set index -> accesses counted so far; read :attr:`set_accesses`
    counted: Dict[int, int] = field(default_factory=dict)
    #: ``id(set_indices)`` -> ``[set_indices, times]``, not yet counted
    pending: Dict[int, list] = field(default_factory=dict, repr=False)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def set_accesses(self) -> Dict[int, int]:
        """Accesses per set index since the last :meth:`reset`: the
        Figure 10 histogram.  Expands the pending sweep charges first,
        so the dict holds every charge made so far."""
        pending = self.pending
        if pending:
            counted = self.counted
            for set_indices, times in pending.values():
                per_set: Dict[int, int] = {}
                _count_elements(per_set, set_indices)
                for set_idx, n in per_set.items():
                    counted[set_idx] = counted.get(set_idx, 0) + n * times
            pending.clear()
        return self.counted

    def charge(self, set_indices, times=1) -> None:
        """Charge a batch's accesses at this level: ``times`` per
        element of ``set_indices``, or ``times[i]`` for element ``i``
        when ``times`` is a list (a store batch's same-line run
        lengths).

        A tuple is a DS's cached decomposition
        (:meth:`~repro.ct.ds.DataflowLinearizationSet.set_indices_for`),
        immutable and shared by every sweep of its DS, so it is not
        counted here: its multiplicity in ``pending`` rises by
        ``times`` in O(1).  Any other sequence is counted now with
        ``collections._count_elements``, the C tally loop behind
        ``Counter.update``, on the plain-dict profile.  A ``Counter``
        profile would slow every scalar access: ``Counter`` overrides
        ``__delitem__``, which sends each item assignment through a
        generic slot about four times slower.
        """
        if type(set_indices) is tuple:
            entry = self.pending.get(id(set_indices))
            if entry is None:
                # the entry holds the tuple, so its id is not reused
                self.pending[id(set_indices)] = [set_indices, times]
            else:
                entry[1] += times
        elif isinstance(times, int):
            for _ in range(times):
                _count_elements(self.counted, set_indices)
        else:
            counted = self.counted
            for set_idx, n in zip(set_indices, times):
                counted[set_idx] = counted.get(set_idx, 0) + n

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations = 0
        self.counted.clear()
        self.pending.clear()

    def clone(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            fills=self.fills,
            evictions=self.evictions,
            dirty_evictions=self.dirty_evictions,
            invalidations=self.invalidations,
            counted=dict(self.set_accesses),
        )

    def load_from(self, other: "CacheStats") -> None:
        """Overwrite this object's counters in place (restore path).

        In place so that long-lived references to ``cache.stats``
        (snapshots, observers) keep seeing the restored values.
        """
        self.hits = other.hits
        self.misses = other.misses
        self.fills = other.fills
        self.evictions = other.evictions
        self.dirty_evictions = other.dirty_evictions
        self.invalidations = other.invalidations
        self.counted = dict(other.set_accesses)
        self.pending.clear()


_PER_EVENT = (
    "{}: {} is a listener-free run kernel, but a listener on this level "
    "needs every hit as its own event; take the scalar access loop"
)


class CacheState:
    """Immutable-by-convention snapshot of one cache level's state.

    Produced by :meth:`SetAssociativeCache.capture_state` and consumed
    by :meth:`SetAssociativeCache.restore_state`.  Only *materialised*
    sets are recorded, so the snapshot's size scales with the working
    set, not the cache geometry.  Restoring the same snapshot twice is
    supported: both capture and restore deep-copy the mutable pieces.
    """

    __slots__ = ("sets", "stats", "extra")

    def __init__(self, sets, stats, extra=None) -> None:
        #: list of (set_idx, set clone): each a deep copy of a
        #: materialised set (:meth:`ReplacementPolicy.clone`)
        self.sets = sets
        self.stats = stats
        #: subclass payload (PLcache lock state, ...)
        self.extra = extra


class SetAssociativeCache:
    """A single write-back, write-allocate cache level.

    Parameters
    ----------
    name:
        Identifier used in events and reports (``"L1D"``, ``"L2"``...).
    size_bytes / assoc:
        Geometry over :data:`repro.params.LINE_SIZE`-byte lines;
        ``size_bytes`` must equal ``num_sets * assoc * LINE_SIZE`` for
        some power-of-two ``num_sets``.
    latency:
        Hit latency in cycles (Table 1 of the paper).
    replacement:
        Policy registry name (default ``"lru"``).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        latency: int,
        replacement: str = "lru",
        replacement_seed: int = 0,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or latency <= 0:
            raise ConfigurationError(
                f"{name}: size/assoc/latency must be positive"
            )
        if size_bytes % (assoc * params.LINE_SIZE):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*LINE_SIZE = {assoc * params.LINE_SIZE}"
            )
        num_sets = size_bytes // (assoc * params.LINE_SIZE)
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{name}: number of sets {num_sets} is not a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.latency = latency
        self.num_sets = num_sets
        self.replacement = replacement
        self.replacement_seed = replacement_seed
        # Resolved once: an unknown name (or a policy that rejects this
        # associativity) fails here, not at the first lazy set fill.
        self._set_class = policy_factory(replacement)
        self._set_class(assoc)
        #: stock LRU: the listener-free kernels inline its touch
        self._lru = self._set_class is LRUPolicy
        # Hot-path geometry: the line size and the validated set count
        # are powers of two, so div/mod set indexing reduces to one
        # shift + one mask.
        self._line_shift = params.LINE_BITS
        self._set_mask = num_sets - 1
        # Sets materialise lazily on first touch.  A 16 MiB LLC has
        # 16384 sets; building a set object per set up front made
        # Machine construction (and therefore fork/warm-start) pay for
        # capacity the run never touches.  ``_set_at`` builds each set
        # with the same per-set seed the eager constructor used, so
        # randomized-replacement streams are unchanged.
        self._sets: List[Optional[ReplacementPolicy]] = [None] * num_sets
        #: indices of materialised sets, in materialisation order — the
        #: digest/snapshot paths iterate these instead of scanning all
        #: ``num_sets`` entries (a 16 MiB LLC has 16384, mostly None)
        self._live: List[int] = []
        self.events = EventBus(name)
        self.stats = CacheStats()

    def _set_at(self, set_idx: int) -> ReplacementPolicy:
        """The set object for ``set_idx``, materialising it if needed."""
        cset = self._sets[set_idx]
        if cset is None:
            cset = self._sets[set_idx] = self._set_class(
                self.assoc, self.replacement_seed + set_idx
            )
            self._live.append(set_idx)
        return cset

    # -- geometry -------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set an address maps to (index bits above the line offset)."""
        return (line_addr >> self._line_shift) & self._set_mask

    def set_indices(self, line_addrs) -> List[int]:
        """:meth:`set_index` of every address, with the shift and mask
        inlined: a batch's decomposition, computed once per batch."""
        shift = self._line_shift
        smask = self._set_mask
        return [(line_addr >> shift) & smask for line_addr in line_addrs]

    @property
    def geometry_key(self) -> Tuple[int, int]:
        """Hashable decomposition key for per-DS set-index caches."""
        return (self._line_shift, self._set_mask)

    def __contains__(self, line_addr: int) -> bool:
        return self.lookup(line_addr) is not None

    # -- pure probes (no state change, no stats) -------------------------------

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Tag lookup with *no* side effects (used by CTLoad/CTStore)."""
        cset = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        if cset is None:  # never-touched set: nothing resident
            return None
        way = cset.by_addr.get(line_addr)
        return None if way is None else cset.ways[way]

    def is_dirty(self, line_addr: int) -> bool:
        line = self.lookup(line_addr)
        return line is not None and line.dirty

    # -- state-changing operations ---------------------------------------------

    def access(
        self, line_addr: int, observable: bool = True
    ) -> Optional[CacheLine]:
        """Look up ``line_addr``, recording hit/miss statistics.

        Returns the resident line on a hit, ``None`` on a miss.  The
        caller (hierarchy) is responsible for filling on miss.
        """
        # Hot path: inlined shift/mask indexing, one bound ``stats``
        # lookup for all counter updates, the policy's rank touch called
        # directly, and event emission skipped entirely when nobody is
        # listening.
        set_idx = (line_addr >> self._line_shift) & self._set_mask
        cset = self._sets[set_idx]
        stats = self.stats
        if observable:
            counted = stats.counted
            counted[set_idx] = counted.get(set_idx, 0) + 1
        if cset is None:
            # Never-touched set: a guaranteed miss, and no state to
            # update yet — defer materialisation to the fill.
            stats.misses += 1
            return None
        way = cset.by_addr.get(line_addr)
        if way is None:
            stats.misses += 1
            return None
        line = cset.ways[way]
        stats.hits += 1
        cset._rank_touch(way)
        events = self.events
        if events.has_listeners:
            events.hit(line_addr, line.dirty)
        return line

    def access_lines(
        self,
        line_addrs,
        start: int = 0,
        set_indices=None,
        mark_dirty: bool = False,
        counts=None,
    ) -> int:
        """Batched :meth:`access` over ``line_addrs[start:]``, without
        the per-set profile.

        Processes elements in order exactly as repeated ``access``
        calls would, stopping at (and *recording*) the first miss:
        returns the index of the missing element, or ``len(line_addrs)``
        when every remaining element hits.  The caller (the hierarchy's
        ``read_lines``/``write_lines``) handles the fill for the missing
        element and resumes the batch after it.  The caller also
        charges the profile, once for the whole batch
        (:meth:`CacheStats.charge`): a batch's profile is one access per
        element whatever hits or misses, and nothing reads it inside
        the batch.

        ``set_indices`` supplies the set indices aligned with
        ``line_addrs`` (per-DS decomposition caches, or
        :meth:`set_indices` once per batch); without them the call
        computes them for the whole batch, so a batch owner that resumes
        after misses passes them and each call costs O(run), not
        O(start).  ``mark_dirty`` applies the write path's dirty
        transition to each hit.

        ``counts`` makes element ``i`` stand for ``counts[i]`` accesses
        in a row to ``line_addrs[i]`` (a same-line run).  A hit charges
        the whole run at once: ``counts[i]`` hits, one
        :meth:`~repro.cache.replacement.ReplacementPolicy.touch_n`, and
        one dirty transition.  A miss records *one* miss and returns
        ``i``; the caller fills, decrements ``counts[i]`` and resumes at
        ``i`` while accesses remain, so the rest of the run hits or
        misses again (a refused fill) exactly as the scalar loop would.

        Each loop does only what a hit changes: the way lookup, the
        replacement touch (inlined for stock LRU without ``counts``)
        and the dirty bit.  Hits and misses move once per call.  Both
        loops end by handing ``line_addrs[start:stop]`` to the level's
        hit-run listeners (the BIA) in one :meth:`EventBus.hit_run`
        call, before returning and so before the caller fills the
        missing line.
        That equals the run's per-event hits and dirty transitions: a
        hit run changes no residency, so each line ends the run
        resident with its end-of-run dirty bit, and only a CT op, never
        a hit, allocates or evicts a BIA entry.

        A level with a per-event listener (:attr:`EventBus.per_event`)
        raises :class:`ProtocolError` before any access: its batches
        take the scalar ``access`` loop (``Machine.load_words`` and its
        siblings send them there).
        """
        events = self.events
        if events.per_event:
            raise ProtocolError(_PER_EVENT.format(self.name, "access_lines"))
        sets = self._sets
        stats = self.stats
        if set_indices is None:
            set_indices = self.set_indices(line_addrs)
        n = len(line_addrs)
        if counts is not None:
            hits = 0
            i = start
            while i < n:
                cset = sets[set_indices[i]]
                way = cset.by_addr.get(line_addrs[i]) if cset is not None else None
                if way is None:
                    stats.misses += 1
                    break
                c = counts[i]
                hits += c
                cset.touch_n(way, c)
                if mark_dirty:
                    cset.ways[way].dirty = True
                i += 1
            stats.hits += hits
            if events.has_listeners and i > start:
                events.hit_run(line_addrs[start:i])
            return i
        lru = self._lru
        for i in range(start, n):
            cset = sets[set_indices[i]]
            way = cset.by_addr.get(line_addrs[i]) if cset is not None else None
            if way is None:
                break
            if lru:
                stamp = cset._stamp + 1
                cset._stamp = stamp
                cset._last_use[way] = stamp
            else:
                cset._rank_touch(way)
            if mark_dirty:
                cset.ways[way].dirty = True
        else:
            i = n
        stats.hits += i - start
        if i < n:
            stats.misses += 1
        if events.has_listeners and i > start:
            events.hit_run(line_addrs[start:i])
        return i

    def rmw_lines(
        self,
        line_addrs,
        start: int = 0,
        set_indices=None,
    ) -> int:
        """Batched load+store :meth:`access` pairs over ``line_addrs[start:]``.

        Per element: one read access then one write access to the same
        line, with the write's dirty transition — the inner pair of a
        read-modify-write sweep.  Processes elements in order exactly as
        paired ``access`` calls would, stopping at (and *recording*) the
        first load-phase miss: returns its index, or ``len(line_addrs)``
        when every remaining pair hits.  A store access immediately
        after its own load hit cannot miss (a touch evicts nothing), so
        the load phase is the only exit point; the caller fills the
        missing element (both phases, where a fill can be refused) and
        resumes after it.

        Shares :meth:`access_lines`'s ``set_indices`` handling, its
        per-event guard, its hit-run delivery and its profile rule (the
        batch owner, ``Machine.rmw_words``, charges two accesses per
        pair for the whole batch), and skips the second tag lookup per
        pair — the load hit already pinned down the way.  It charges a
        pair's two touches at once (``touch_n(way, 2)``, inlined for
        stock LRU).
        """
        events = self.events
        if events.per_event:
            raise ProtocolError(_PER_EVENT.format(self.name, "rmw_lines"))
        sets = self._sets
        stats = self.stats
        if set_indices is None:
            set_indices = self.set_indices(line_addrs)
        n = len(line_addrs)
        lru = self._lru
        for i in range(start, n):
            cset = sets[set_indices[i]]
            way = cset.by_addr.get(line_addrs[i]) if cset is not None else None
            if way is None:
                break
            if lru:
                stamp = cset._stamp + 2
                cset._stamp = stamp
                cset._last_use[way] = stamp
            else:
                cset.touch_n(way, 2)
            cset.ways[way].dirty = True
        else:
            i = n
        stats.hits += 2 * (i - start)
        if i < n:
            stats.misses += 1
        if events.has_listeners and i > start:
            events.hit_run(line_addrs[start:i])
        return i

    def fill(
        self, line_addr: int, dirty: bool = False
    ) -> Optional[CacheLine]:
        """Install ``line_addr``; returns the evicted line, if any.

        If the line is already resident this refreshes its replacement
        rank (and ORs in ``dirty``) instead of double-filling.
        """
        set_idx = (line_addr >> self._line_shift) & self._set_mask
        cset = self._sets[set_idx]
        if cset is None:
            cset = self._set_at(set_idx)
        stats = self.stats
        events = self.events
        emit = events.has_listeners
        by_addr = cset.by_addr
        existing_way = by_addr.get(line_addr)
        if existing_way is not None:
            line = cset.ways[existing_way]
            cset._rank_touch(existing_way)
            if dirty and not line.dirty:
                line.dirty = True
                if emit:
                    events.dirty(line_addr)
            return None
        victim_way = cset.victim()
        ways = cset.ways
        victim = ways[victim_way]
        if victim is not None:
            del by_addr[victim.line_addr]
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            if emit:
                events.evict(victim.line_addr, victim.dirty)
        ways[victim_way] = CacheLine(line_addr, dirty)
        by_addr[line_addr] = victim_way
        cset.on_fill(victim_way)
        stats.fills += 1
        if emit:
            events.fill(line_addr, dirty)
        return victim

    def set_dirty(self, line_addr: int) -> bool:
        """Mark a resident line dirty; returns False if not resident."""
        line = self.lookup(line_addr)
        if line is None:
            return False
        if not line.dirty:
            line.dirty = True
            if self.events.has_listeners:
                self.events.dirty(line_addr)
        return True

    def clean(self, line_addr: int) -> bool:
        """Clear a resident line's dirty bit (write-back completed)."""
        line = self.lookup(line_addr)
        if line is None or not line.dirty:
            return False
        line.dirty = False
        if self.events.has_listeners:
            self.events.clean(line_addr)
        return True

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove ``line_addr`` if resident; returns the removed line."""
        cset = self._sets[self.set_index(line_addr)]
        if cset is None:
            return None
        way = cset.by_addr.pop(line_addr, None)
        if way is None:
            return None
        line = cset.ways[way]
        cset.ways[way] = None
        self.stats.invalidations += 1
        self.events.invalidate(line_addr)
        return line

    # -- introspection ----------------------------------------------------------

    def resident_lines(self) -> List[int]:
        """Addresses of all resident lines (sorted, for tests)."""
        out: List[int] = []
        for cset in self._sets:
            if cset is not None:
                out.extend(cset.by_addr)
        return sorted(out)

    def set_contents(self, set_idx: int) -> List[Tuple[int, bool]]:
        """(line_addr, dirty) pairs resident in one set."""
        cset = self._sets[set_idx]
        if cset is None:
            return []
        return [
            (line.line_addr, line.dirty)
            for line in cset.ways
            if line is not None
        ]

    def occupied_sets(
        self,
    ) -> List[Tuple[int, Tuple[Tuple[int, bool], ...], Tuple[int, ...]]]:
        """``(set_idx, contents, order)`` for every non-empty set.

        Equivalent to calling :meth:`set_contents` and
        :meth:`replacement_state` over ``range(num_sets)`` and keeping
        the non-empty ones, but touching only *materialised* sets —
        after a short run most of a large LLC's sets were never
        accessed, so digest consumers must not pay per-set cost for
        them.  Order is ascending ``set_idx``, matching the dense scan.
        """
        out: List[Tuple[int, Tuple[Tuple[int, bool], ...], Tuple[int, ...]]] = []
        for set_idx in sorted(self._live):
            cset = self._sets[set_idx]
            if not cset.by_addr:
                continue
            contents = tuple(
                sorted(
                    (line.line_addr, line.dirty)
                    for line in cset.ways
                    if line is not None
                )
            )
            if hasattr(cset, "recency_order"):
                ways = cset.ways
                order = tuple(ways[w].line_addr for w in cset.recency_order())
            else:
                order = tuple(sorted(cset.by_addr))
            out.append((set_idx, contents, order))
        return out

    def replacement_state(self, set_idx: int) -> Tuple[int, ...]:
        """Attacker-relevant replacement order of one set (LRU only).

        For LRU this is the most- to least-recently-used order of the
        resident line addresses; other policies expose fill order via
        resident contents only.  An unmaterialised set reports the
        empty order, identical to a materialised-but-empty one.
        """
        cset = self._sets[set_idx]
        if cset is None:
            return tuple()
        if hasattr(cset, "recency_order"):
            ways = cset.ways
            return tuple(ways[w].line_addr for w in cset.recency_order())
        return tuple(sorted(cset.by_addr))

    # -- state capture / restore (machine fork support) --------------------------

    def capture_state(self) -> CacheState:
        """Snapshot resident lines, replacement state and counters.

        Only materialised sets are captured; everything mutable is
        deep-copied, so the snapshot is immune to later cache activity
        and can be restored any number of times.  EventBus subscriptions
        are deliberately NOT part of the snapshot — restoring simulated
        state must not detach observers (or the BIA) from a live bus.
        """
        sets = self._sets
        return CacheState(
            [(set_idx, sets[set_idx].clone()) for set_idx in sorted(self._live)],
            self.stats.clone(),
            self._capture_extra(),
        )

    def restore_state(self, state: CacheState, adopt: bool = False) -> None:
        """Install a snapshot taken by :meth:`capture_state`.

        ``adopt=True`` takes ownership of the snapshot's sets instead of
        cloning them — valid only when the caller guarantees the
        snapshot is ephemeral and never restored again
        (:meth:`Machine.fork` round-trips capture→restore, and cloning
        each set twice per fork dominated the fork cost).
        """
        sets: List[Optional[ReplacementPolicy]] = [None] * self.num_sets
        for set_idx, cset in state.sets:
            sets[set_idx] = cset if adopt else cset.clone()
        self._sets = sets
        self._live = [set_idx for set_idx, _ in state.sets]
        self.stats.load_from(state.stats)
        self._restore_extra(state.extra)

    def _capture_extra(self):
        """Subclass hook: extra state to include in a snapshot."""
        return None

    def _restore_extra(self, extra) -> None:
        """Subclass hook: install the payload from :meth:`_capture_extra`."""
