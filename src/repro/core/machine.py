"""The simulated machine: CPU counters + cache hierarchy + BIA + DRAM.

:class:`Machine` is the single object workloads and mitigation
contexts talk to.  It offers

* a **victim** execution API — ``execute`` (bookkeeping instructions),
  ``load_word`` / ``store_word`` (normal accesses), ``ctload`` /
  ``ctstore`` (the paper's micro-ops), and the Sec. 6.5 DRAM-bypass
  accesses — all of which accumulate into the victim's
  :class:`~repro.core.stats.MachineStats`;
* an **attacker** API — loads, flushes and targeted evictions that
  share the caches but never touch the victim's counters, used by the
  attack models in :mod:`repro.attacks`;
* a ``snapshot`` of every counter the experiments need.

Geometry defaults follow Table 1 of the paper:

=============  =======================================
CPU            in-order cost model (1 cycle/inst)
L1d cache      64 KiB, 8-way, 2-cycle latency
L2 cache       1 MiB, 16-way, 15-cycle latency
LLC            16 MiB, 16-way, 41-cycle latency
BIA            1 KiB (64 entries), in L1d or L2, 1 cycle
DRAM           200 cycles, closed-row policy
=============  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import params
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import NextLinePrefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.bia import BIA
from repro.core.costs import CostModel, DEFAULT_COSTS, check_whole
from repro.core.instructions import CTOps
from repro.core.stats import MachineStats
from repro.errors import AlignmentError, ConfigurationError, ProtocolError
from repro.memory.backing import Allocator, MainMemory
from repro.memory.dram import DRAM

#: Inlined ``addr_math.line_base`` for the hot access paths: masking
#: off the line-offset bits is identical to ``addr - addr % LINE_SIZE``
#: for the (power-of-two) architectural line size.
_LINE_BASE_MASK = ~(params.LINE_SIZE - 1)
#: A stored value is kept modulo this (one ``params.WORD_SIZE`` word).
_WORD_MOD = 1 << (8 * params.WORD_SIZE)


@dataclass(frozen=True)
class MachineConfig:
    """Construction parameters; defaults reproduce the paper's Table 1."""

    l1d_size: int = 64 * 1024
    l1d_assoc: int = 8
    l1d_latency: int = 2
    l2_size: int = 1024 * 1024
    l2_assoc: int = 16
    l2_latency: int = 15
    llc_size: int = 16 * 1024 * 1024
    llc_assoc: int = 16
    llc_latency: int = 41
    dram_latency: int = 200
    #: "closed" (the paper's constant-time assumption) or "open"
    #: (row-buffer policy; leaks locality — see repro.memory.dram)
    dram_policy: str = "closed"
    bia_entries: int = 64
    bia_assoc: int = 8
    bia_latency: int = 1
    bia_level: str = "L1D"  # "L1D" or "L2" (Sec. 4.2), or "LLC" (Sec. 6.4)
    replacement: str = "lru"
    prefetcher: bool = False
    #: build the L1d as a PLcache (partition-locked; Sec. 6.1 baseline)
    plcache: bool = False
    #: enforce LLC inclusivity (back-invalidate private caches on LLC
    #: evictions) — required by cross-core eviction attacks
    inclusive_llc: bool = False
    #: squash stores whose value equals memory (Sec. 2.4's "silent
    #: stores" concern, which the paper leaves to future work: the
    #: squashed store does not set the dirty bit, making dirty bits
    #: VALUE-dependent and breaking constant-time store sweeps — see
    #: tests/core/test_silent_stores.py for the demonstrated leak)
    silent_stores: bool = False
    #: number of LLC slices (>1 enables interconnect-traffic modeling)
    llc_slices: int = 1
    #: least significant physical-address bit used by the slice hash
    ls_hash: int = 12
    #: override the DS-management granularity M (default: 12 for an
    #: L1D/L2 BIA; the Sec. 6.4 feasibility rule for an LLC BIA).
    #: Setting this against the feasibility rule is allowed only for
    #: leak-demonstration experiments.
    management_bits: Optional[int] = None
    #: base seed for randomized replacement policies; threaded through
    #: to every cache level (with a per-level offset so levels do not
    #: share per-set RNG streams), making ``replacement="random"``
    #: experiments reproducible per-config.
    replacement_seed: int = 0
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        for name in ("l1d_latency", "l2_latency", "llc_latency",
                     "dram_latency", "bia_latency"):
            check_whole(name, getattr(self, name))
        slices = self.llc_slices
        if slices < 1 or slices & (slices - 1):
            raise ConfigurationError(
                f"llc_slices must be a power of two >= 1: {slices!r}"
            )
        # A 64-bit physical address has no bit 64 or above: a hash
        # starting there would map every address to slice 0.
        if not params.LINE_BITS <= self.ls_hash < 64:
            raise ConfigurationError(
                f"ls_hash must lie in [{params.LINE_BITS}, 64): {self.ls_hash!r}"
            )

    def describe(self) -> Dict[str, str]:
        """Human-readable configuration rows (Table 1 reproduction)."""
        return {
            "CPU": f"linear cost model, {self.costs.cpi} cycle/inst",
            "L1d cache": (
                f"{self.l1d_size // 1024} KB, {self.l1d_assoc}-way, "
                f"{self.l1d_latency} cycles latency"
            ),
            "L2 cache": (
                f"{self.l2_size // (1024 * 1024)} MB, {self.l2_assoc}-way, "
                f"{self.l2_latency} cycles latency"
            ),
            "Last Level cache": (
                f"{self.llc_size // (1024 * 1024)} MB, {self.llc_assoc}-way, "
                f"{self.llc_latency} cycles latency"
            ),
            "BIA": (
                f"in {self.bia_level} cache, "
                f"{self.bia_entries * 16 // 1024} KB, "
                f"{self.bia_latency} cycle latency"
            ),
            "DRAM": (
                f"{self.dram_latency} cycles latency, "
                f"{self.dram_policy}-row policy"
            ),
        }


class Machine:
    """One simulated core with victim and attacker actors."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config = config or MachineConfig()
        self.costs = config.costs
        self.memory = MainMemory()
        self.allocator = Allocator(self.memory)
        self.dram = DRAM(
            latency=config.dram_latency, policy=config.dram_policy
        )
        l1d_class = SetAssociativeCache
        if config.plcache:
            from repro.cache.plcache import PartitionLockedCache

            l1d_class = PartitionLockedCache
        # Thread the config's replacement seed into every level.  Each
        # level gets a disjoint per-set seed range (offset by a stride
        # larger than any realistic set count) so no two levels share a
        # per-set RNG stream.
        seed = config.replacement_seed
        _LEVEL_STRIDE = 1 << 20
        self.l1d = l1d_class(
            "L1D",
            config.l1d_size,
            config.l1d_assoc,
            config.l1d_latency,
            replacement=config.replacement,
            replacement_seed=seed,
        )
        self.l2 = SetAssociativeCache(
            "L2",
            config.l2_size,
            config.l2_assoc,
            config.l2_latency,
            replacement=config.replacement,
            replacement_seed=seed + _LEVEL_STRIDE,
        )
        self.llc = SetAssociativeCache(
            "LLC",
            config.llc_size,
            config.llc_assoc,
            config.llc_latency,
            replacement=config.replacement,
            replacement_seed=seed + 2 * _LEVEL_STRIDE,
        )
        prefetcher = NextLinePrefetcher() if config.prefetcher else None
        self.hierarchy = CacheHierarchy(
            [self.l1d, self.l2, self.llc], self.dram, prefetcher
        )
        self.management_bits = self._resolve_management_bits(config)
        self.bia = BIA(
            entries=config.bia_entries,
            assoc=config.bia_assoc,
            latency=config.bia_latency,
            group_bits=self.management_bits,
        )
        bia_cache = self.hierarchy.level(config.bia_level)
        self.bia.attach(bia_cache)
        self.ctops = CTOps(
            self.hierarchy, self.bia, self.memory, config.bia_level
        )
        #: LLC slice hash + per-run interconnect trace (Sec. 6.4);
        #: populated only when the machine models a sliced LLC.
        self.slice_hash = None
        self.slice_trace: list = []
        if config.llc_slices > 1:
            from repro.cache.slices import SliceHash

            self.slice_hash = SliceHash(config.llc_slices, config.ls_hash)
            if config.bia_level == "LLC":
                self.ctops.traffic_hook = self._record_slice
        #: inclusive-LLC back-invalidator (None when non-inclusive);
        #: RemoteCore registers its private caches here too.
        self.back_invalidator = None
        if config.inclusive_llc:
            from repro.core.multicore import BackInvalidator

            self.back_invalidator = BackInvalidator()
            self.back_invalidator.register(self.l1d)
            self.back_invalidator.register(self.l2)
            self.llc.events.subscribe(self.back_invalidator)
        #: Sec. 6.2 mode bit: when True, raw CTLoad/CTStore are
        #: rejected unless executing inside a macro-op (microcode).
        self.user_mode = False
        self._microcode_depth = 0
        self.stats = MachineStats()

    def microcode(self):
        """Context manager marking privileged macro-op execution."""
        return _MicrocodeScope(self)

    @staticmethod
    def _resolve_management_bits(config: "MachineConfig") -> int:
        """Pick the DS-management granularity M (Sec. 6.4 rules)."""
        if config.management_bits is not None:
            return config.management_bits
        if config.bia_level == "LLC":
            from repro.cache.slices import llc_bia_feasibility

            feasibility = llc_bia_feasibility(config.ls_hash)
            if not feasibility.feasible:
                raise ConfigurationError(
                    f"LLC-resident BIA infeasible: {feasibility.reason}"
                )
            return feasibility.management_bits
        return params.PAGE_BITS

    def _record_slice(self, line_addr: int) -> None:
        self.slice_trace.append(self.slice_hash.slice_of(line_addr))

    def _record_llc_traffic(self, line_addr: int, hit_level) -> None:
        """Log interconnect traffic of demand accesses that travelled
        to the LLC (L1/L2 misses or LLC-start accesses)."""
        if self.slice_hash is not None and hit_level in ("LLC", None):
            self.slice_trace.append(self.slice_hash.slice_of(line_addr))

    # -- victim: bookkeeping ---------------------------------------------------------

    def execute(self, n_insts: int) -> None:
        """Account ``n_insts`` non-memory instructions of victim work.

        ``n_insts`` must be a non-negative whole number; a plain int
        passes the check with one type test.
        """
        if n_insts.__class__ is not int or n_insts < 0:
            check_whole("n_insts", n_insts, False, "instructions")
        stats = self.stats
        stats.insts += n_insts
        stats.cycles += n_insts * self.costs.cpi

    # -- victim: normal memory ops ------------------------------------------------------

    def load_word(self, addr: int, start_level: int = 0) -> int:
        """Ordinary load of the word at ``addr``.  ``start_level``
        bypasses the levels above it (the BIA fetch pass, Sec. 4.2)."""
        line_addr = addr & _LINE_BASE_MASK
        # Probe the start level directly; only a miss walks the
        # hierarchy (CacheHierarchy.read_line without its AccessResult).
        first = self.hierarchy.levels[start_level]
        if first.access(line_addr) is not None:
            latency = first.latency
            hit_level = first.name
        else:
            extra, hit_level = self.hierarchy.read_miss_fill(
                line_addr, start_level
            )
            latency = first.latency + extra
        if self.slice_hash is not None:
            self._record_llc_traffic(line_addr, hit_level)
        # One bound-attribute block for all three counters (hot path).
        stats = self.stats
        stats.loads += 1
        stats.insts += 1
        stats.cycles += latency
        return self.memory.read_word(addr)

    def store_word(self, addr: int, value: int, start_level: int = 0) -> None:
        """Ordinary write-allocate store.

        With ``silent_stores`` enabled, a store of the value already in
        memory is squashed after the read: the line is fetched but its
        dirty bit is NOT set — hardware behaviour whose security
        consequences Sec. 2.4 flags and defers.
        """
        line_addr = addr & _LINE_BASE_MASK
        silent = (
            self.config.silent_stores
            and self.memory.read_word(addr) == value % _WORD_MOD
        )
        # Same split as load_word; the write path then dirties the line
        # at the start level (CacheHierarchy.write_line) unless squashed.
        first = self.hierarchy.levels[start_level]
        line = first.access(line_addr)
        if line is not None:
            latency = first.latency
            hit_level = first.name
            if not silent and not line.dirty:
                line.dirty = True
                if first.events.has_listeners:
                    first.events.dirty(line_addr)
        else:
            extra, hit_level = self.hierarchy.read_miss_fill(
                line_addr, start_level
            )
            latency = first.latency + extra
            if not silent:
                first.set_dirty(line_addr)
        if self.slice_hash is not None:
            self._record_llc_traffic(line_addr, hit_level)
        if not silent:
            self.memory.write_word(addr, value)
        stats = self.stats
        stats.stores += 1
        stats.insts += 1
        stats.cycles += latency

    # -- victim: bulk-access kernels -----------------------------------------------------
    #
    # The batched kernels below are *observationally identical* to the
    # equivalent scalar loops (same counters, same event order, same
    # final cache state, bit-identical cycles) — enforced by
    # tests/core/test_bulk_equiv.py.  They exist because the per-line
    # Python round-trip (execute + load_word per DS line) dominated
    # every sweep-heavy figure; hoisting attribute lookups and folding
    # the per-element counter updates into one batch update recovers
    # most of that overhead.  Every cycle cost is a whole number
    # (checked by CostModel and MachineConfig), so a batch's cycles are
    # charged as one sum.  Two kinds of batch take the scalar loop
    # itself: those on machines with a sliced LLC, whose slice-traffic
    # recording depends on each access's individual hit level, and
    # observed ones, whose start level has a listener that needs every
    # hit as its own event (``EventBus.per_event``: the sanitizer's
    # trace recorder, the attack observers, the inclusive-LLC
    # back-invalidator).  The scalar loop is the reference every bulk
    # test compares against, so an observed batch is exact by
    # construction, and the run kernels need no per-event loop.

    def load_words(
        self,
        addrs,
        start_level: int = 0,
        pre_insts: int = 0,
        lines=None,
        set_indices=None,
        collect_values: bool = True,
    ):
        """Batched ``execute(pre_insts); load_word(addr)`` pairs.

        Returns the loaded values, in order — or ``None`` with
        ``collect_values=False``, which skips the backing-store reads
        for callers that only need the simulated accesses (the loaded
        words of a CT sweep are discarded for all but one element).
        ``lines`` optionally supplies the precomputed line base
        addresses aligned with ``addrs``; ``set_indices`` the
        start-level set indices (per-DS decomposition caches — see
        ``DataflowLinearizationSet``).  Sliced-LLC machines and a start
        level with a per-event listener take the scalar loop (see the
        section comment above).
        """
        check_whole("pre_insts", pre_insts, False, "instructions")
        n = len(addrs)
        if n == 0:
            return [] if collect_values else None
        if (self.slice_hash is not None
                or self.hierarchy.levels[start_level].events.per_event):
            execute = self.execute
            load = self.load_word
            out = []
            for a in addrs:
                if pre_insts:
                    execute(pre_insts)
                out.append(load(a, start_level))
            return out if collect_values else None
        if lines is None:
            mask = _LINE_BASE_MASK
            lines = [a & mask for a in addrs]
        latency = self.hierarchy.read_lines(lines, start_level, set_indices)
        stats = self.stats
        per = pre_insts + 1
        stats.loads += n
        stats.insts += n * per
        stats.cycles += n * pre_insts * self.costs.cpi + latency
        if not collect_values:
            return None
        read = self.memory.read_word
        return [read(a) for a in addrs]

    def store_words(self, addrs, values, pre_insts: int = 0) -> None:
        """Batched ``execute(pre_insts); store_word(addr, value)`` pairs.

        Falls back to the scalar loop under ``silent_stores`` (the
        squash decision needs a per-element memory comparison), on
        sliced-LLC machines and while the L1d has a per-event listener.
        Like every store batch, it starts at the L1d.  ``addrs`` and
        ``values`` must have equal lengths.
        Consecutive stores to one line are charged as one run (see
        :meth:`CacheHierarchy.write_lines`), and the backing store is
        written in one pass (:meth:`MainMemory.write_words`).
        """
        check_whole("pre_insts", pre_insts, False, "instructions")
        n = len(addrs)
        if len(values) != n:
            raise ProtocolError(
                f"store_words got {n} addresses and {len(values)} values"
            )
        if n == 0:
            return
        if (self.slice_hash is not None or self.config.silent_stores
                or self.l1d.events.per_event):
            execute = self.execute
            store = self.store_word
            for a, v in zip(addrs, values):
                if pre_insts:
                    execute(pre_insts)
                store(a, v)
            return
        mask = _LINE_BASE_MASK
        latency = self.hierarchy.write_lines([a & mask for a in addrs])
        self.memory.write_words(addrs, values)
        stats = self.stats
        per = pre_insts + 1
        stats.stores += n
        stats.insts += n * per
        stats.cycles += n * pre_insts * self.costs.cpi + latency

    def rmw_words(
        self,
        addrs,
        target_idx: int = -1,
        target_fn=None,
        update_fn=None,
        start_level: int = 0,
        pre_insts: int = 0,
        lines=None,
        set_indices=None,
    ):
        """Batched read-modify-write triples.

        Per element: ``execute(pre_insts); v = load_word(addr);
        store_word(addr, new)``.  Two forms pick ``new``:

        * targeted (``target_idx``/``target_fn``): ``target_fn(v)`` at
          position ``target_idx`` and the written-back ``v`` elsewhere —
          the shape of both the software-CT store/RMW sweep and
          Algorithm 3's fetch pass;
        * per-element (``update_fn``, which takes precedence):
          ``update_fn(i, v)`` at every position ``i`` — a public
          read-modify-write loop such as Dijkstra's relaxation.
          ``update_fn`` must depend only on its arguments (it may run
          after later elements' cache accesses).

        Returns a list aligned with ``addrs``.  The per-element form
        reads and writes every element and returns every loaded value.
        The targeted form reads and writes back only the target's word
        and returns only ``values[target_idx]`` (the rest are ``None``):
        its callers, the sweeps and the fetch pass, read nothing else.
        The simulated accesses of the other elements are still
        performed and charged, and the memory image is unchanged, since
        each skipped write-back would write the word it had just read.

        Sliced-LLC and silent-store machines, and a start level with a
        per-event listener, take one scalar fallback, the ``execute`` +
        ``load_word`` + ``store_word`` loop itself: slice traffic
        depends on each access's hit level, a silent store's squash
        decision on each element's memory comparison, and a per-event
        listener needs every hit as its own event.  It returns the same
        values, ``None`` at the targeted form's non-target positions
        included.

        The pairs stay fused (load and store of element i before the
        load of element i+1) because a miss's fill and its store must
        come before the next element's load, exactly as in the scalar
        path; the all-hit runs go through the cache's fused pair kernel
        (:meth:`~repro.cache.set_assoc.SetAssociativeCache.rmw_lines`).
        The batch computes its set indices once (unless the caller
        supplied them), so each resume of that kernel costs O(run), and
        charges the start level's profile once, two accesses per pair
        (:meth:`~repro.cache.set_assoc.CacheStats.charge`; a
        caller-supplied tuple, a DS sweep's cached decomposition, is
        not counted until the profile is read).  A missed pair's store
        half therefore probes the start level unobserved; a miss walk
        records only the levels below.

        In the targeted form, ``target_idx`` must lie in ``[-1, n)``
        and a ``target_idx >= 0`` needs a ``target_fn``; anything else
        raises :class:`ProtocolError` before any access.
        """
        check_whole("pre_insts", pre_insts, False, "instructions")
        n = len(addrs)
        if update_fn is None:
            if not -1 <= target_idx < n:
                raise ProtocolError(
                    f"rmw_words target_idx {target_idx} outside [-1, {n})"
                )
            if target_idx >= 0 and target_fn is None:
                raise ProtocolError(
                    f"rmw_words target_idx {target_idx} needs a target_fn"
                )
        if n == 0:
            return []
        hier = self.hierarchy
        first = hier.levels[start_level]
        first_events = first.events
        if (self.slice_hash is not None or self.config.silent_stores
                or first_events.per_event):
            execute = self.execute
            load = self.load_word
            store = self.store_word
            out = [None] * n
            for i in range(n):
                a = addrs[i]
                if pre_insts:
                    execute(pre_insts)
                v = load(a, start_level)
                if update_fn is not None:
                    out[i] = v
                    new = update_fn(i, v)
                elif i == target_idx:
                    out[i] = v
                    new = target_fn(v)
                else:
                    new = v
                store(a, new, start_level)
            return out
        if lines is None:
            mask = _LINE_BASE_MASK
            lines = [a & mask for a in addrs]
        first_access = first.access
        first_set_dirty = first.set_dirty
        if set_indices is None:
            set_indices = first.set_indices(lines)
        miss_fill = hier.read_miss_fill
        first_lat = first.latency
        read = self.memory.read_word
        write = self.memory.write_word
        stats = self.stats
        pre_cycles = pre_insts * self.costs.cpi
        pair_cycles = pre_cycles + 2 * first_lat
        cycles = 0
        rmw_run = first.rmw_lines
        first.stats.charge(set_indices, 2)
        out = [None] * n
        i = 0
        while i < n:
            nxt = rmw_run(lines, i, set_indices)
            # Completed all-hit pairs [i, nxt): one charge, then the
            # memory traffic.
            cycles += (nxt - i) * pair_cycles
            if update_fn is not None:
                for j in range(i, nxt):
                    a = addrs[j]
                    v = read(a)
                    out[j] = v
                    write(a, update_fn(j, v))
            elif i <= target_idx < nxt:
                a = addrs[target_idx]
                v = read(a)
                out[target_idx] = v
                write(a, target_fn(v))
            if nxt == n:
                break
            # Element nxt's load access missed (already recorded by the
            # kernel); fill and run its store phase fully generally —
            # a PLcache can refuse the fill.
            a = addrs[nxt]
            line = lines[nxt]
            cycles += pre_cycles + first_lat + miss_fill(line, start_level)[0]
            writes = update_fn is not None or nxt == target_idx
            if writes:
                v = out[nxt] = read(a)
                if update_fn is not None:
                    new = update_fn(nxt, v)
                else:
                    new = target_fn(v)
            hit = first_access(line, False)  # charged with the batch
            if hit is not None:
                cycles += first_lat
                if not hit.dirty:
                    hit.dirty = True
                    if first_events.has_listeners:
                        first_events.dirty(line)
            else:
                cycles += first_lat + miss_fill(line, start_level)[0]
                first_set_dirty(line)
            if writes:
                write(a, new)
            i = nxt + 1
        stats.cycles += cycles
        per = pre_insts + 2
        stats.loads += n
        stats.stores += n
        stats.insts += n * per
        return out

    def sweep_load_lines(self, ds, pre_insts: int = 0) -> None:
        """Full-DS sweep load: one access per DS line.

        The loaded words are discarded (a CT load keeps only the word
        it wants, which its caller reads from memory), so the sweep
        reads none and passes the DS lines themselves as its
        addresses.  It hands over the DS's cached set-index tuple, so
        its profile charge is a multiplicity of that tuple, counted
        only when the profile is read
        (:meth:`~repro.cache.set_assoc.CacheStats.charge`).
        """
        set_indices = None
        if self.slice_hash is None:
            set_indices = ds.set_indices_for(self.l1d)
        self.load_words(
            ds.lines,
            pre_insts=pre_insts,
            lines=ds.lines,
            set_indices=set_indices,
            collect_values=False,
        )

    def sweep_store_lines(
        self,
        ds,
        offset: int = 0,
        target_idx: int = -1,
        target_fn=None,
        pre_insts: int = 0,
    ):
        """Full-DS read-modify-write sweep.

        Every DS line's word is read and written back; only position
        ``target_idx`` receives ``target_fn(current)``, at ``offset``
        in its line, which must be a word-aligned intra-line offset
        (see :func:`_check_sweep_offset`).  Returns a list aligned with
        ``ds.lines`` that holds only ``values[target_idx]``.  The sweep
        reads and writes only the target's word, so only the target's
        address carries the offset; every other element's write-back
        leaves memory unchanged at any offset.  Like the load sweep, it
        hands over the DS's cached set-index tuple, whose profile
        charge (two accesses per line) is counted only when read.
        """
        _check_sweep_offset(offset)
        lines = ds.lines
        set_indices = None
        if self.slice_hash is None:
            set_indices = ds.set_indices_for(self.l1d)
        addrs = lines
        if offset and 0 <= target_idx < len(lines):
            addrs = list(lines)
            addrs[target_idx] += offset
        return self.rmw_words(
            addrs,
            target_idx=target_idx,
            target_fn=target_fn,
            pre_insts=pre_insts,
            lines=lines,
            set_indices=set_indices,
        )

    def charge_memory(self, n_accesses: int, latency_each: float) -> None:
        """Account ``n_accesses`` data accesses without touching the caches.

        Used for access sequences that provably repeat an
        already-simulated pattern (identical cache-state effect), so
        only the counters need to move — e.g. the 2nd..k-th sweeps of
        a software-CT gather.  Each access also costs one instruction.
        Both arguments must be non-negative whole numbers.
        """
        check_whole("n_accesses", n_accesses, False, "accesses")
        check_whole("latency_each", latency_each, False)
        stats = self.stats
        stats.loads += n_accesses
        stats.insts += n_accesses
        # Like load_word, a memory instruction's cycle cost IS its
        # latency; no separate cpi charge.
        stats.cycles += n_accesses * latency_each

    # -- victim: Sec. 6.5 DRAM bypass ---------------------------------------------------

    def load_word_uncached(self, addr: int) -> int:
        """Load straight from DRAM with no cache state change."""
        result = self.hierarchy.read_line_uncached(addr & _LINE_BASE_MASK)
        stats = self.stats
        stats.loads += 1
        stats.insts += 1
        stats.cycles += result.latency
        return self.memory.read_word(addr)

    def store_word_uncached(self, addr: int, value: int) -> None:
        """Store straight to DRAM with no cache state change."""
        result = self.hierarchy.write_line_uncached(addr & _LINE_BASE_MASK)
        self.memory.write_word(addr, value)
        stats = self.stats
        stats.stores += 1
        stats.insts += 1
        stats.cycles += result.latency

    # -- victim: CT micro-ops -------------------------------------------------------------

    def _check_ct_privilege(self, op: str) -> None:
        if self.user_mode and self._microcode_depth == 0:
            raise ProtocolError(
                f"{op} is a privileged micro-op in user mode; use the "
                "macro-operations (repro.core.macro_ops.MacroOpUnit) — "
                "raw bitmap access is hidden from users (Sec. 6.2)"
            )

    def ctload(self, addr: int):
        """Execute CTLoad; returns ``(data, existence_bitmap)``."""
        self._check_ct_privilege("CTLoad")
        data, existence, latency = self.ctops.ctload(addr)
        stats = self.stats
        stats.ct_loads += 1
        stats.insts += 1
        stats.cycles += latency
        return data, existence

    def ctload_words(self, addrs, pre_insts: int = 0):
        """Batched ``execute(pre_insts); ctload(a)`` pairs.

        Returns ``(data, existence)``: the loaded words in order and the
        existence bitmap of the last CTLoad (``None`` for an empty
        batch).  Each same-group run is one BIA access plus counted
        hits (:meth:`CTOps.ctload_words`), and the counters move once
        per batch.  Two cases take the scalar loop itself: a CT-op
        traffic hook (a sliced LLC with an LLC-resident BIA records
        every probe's slice), and user mode outside microcode, where
        the first CTLoad raises with the scalar loop's counters.
        """
        check_whole("pre_insts", pre_insts, False, "instructions")
        ctops = self.ctops
        if ctops.traffic_hook is not None or (
            self.user_mode and self._microcode_depth == 0
        ):
            execute = self.execute
            ctload = self.ctload
            data = []
            existence = None
            for a in addrs:
                if pre_insts:
                    execute(pre_insts)
                word, existence = ctload(a)
                data.append(word)
            return data, existence
        n = len(addrs)
        if n == 0:
            return [], None
        data, existence, latency = ctops.ctload_words(addrs)
        stats = self.stats
        per = pre_insts + 1
        stats.ct_loads += n
        stats.insts += n * per
        stats.cycles += n * pre_insts * self.costs.cpi + latency
        return data, existence

    def ctstore(self, addr: int, value: int) -> int:
        """Execute CTStore; returns the dirtiness bitmap."""
        self._check_ct_privilege("CTStore")
        dirtiness, latency = self.ctops.ctstore(addr, value)
        stats = self.stats
        stats.ct_stores += 1
        stats.insts += 1
        stats.cycles += latency
        return dirtiness

    @property
    def ds_start_level(self) -> int:
        """Level index DS accesses must start at (bypass above the BIA)."""
        return self.ctops.start_level

    # -- attacker actor ---------------------------------------------------------------------

    def attacker_load(self, addr: int) -> int:
        """Attacker access sharing the caches; returns its latency.

        Not counted in the victim's statistics; the latency is what a
        Prime+Probe attacker times.
        """
        return self.hierarchy.read_line(
            addr & _LINE_BASE_MASK, observable=False
        ).latency

    def attacker_flush(self, addr: int) -> int:
        """clflush from the attacker (Flush+Reload primitive).

        Returns the flush's latency: the DRAM write-back cost if any
        cached copy was dirty, else 0.  clflush timing is itself a
        side channel (Flush+Flush measures exactly this), and dropping
        it also silently undercharged every Flush+Reload attack phase
        that flushes dirty victim lines.
        """
        return self.hierarchy.flush_line(addr & _LINE_BASE_MASK)

    def attacker_evict(self, level: str, addr: int):
        """Targeted eviction of one line at one level.

        Models the effect of an attacker priming the conflicting set
        without simulating its whole working set.  Returns the
        :class:`~repro.cache.hierarchy.EvictResult` — truthy iff the
        line was present, with ``latency`` carrying the dirty-write-
        back cost so Evict+Time measurements can charge it.
        """
        return self.hierarchy.evict_line_from(level, addr & _LINE_BASE_MASK)

    # -- bookkeeping ----------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero all counters and measurement traces (cache contents
        are preserved).

        Workloads warm their data, call this, then measure — so
        anything *measurement-shaped* must be wiped here or warm-up
        activity leaks into the measured phase.  That includes the
        interconnect ``slice_trace`` on sliced-LLC machines (it used
        to accumulate across phases, polluting secret-independence
        comparisons of the measured window) and the DRAM open-row
        buffers under the open-page policy (a warm-up row left open
        would turn the first measured access into a row hit that the
        measured phase never earned).
        """
        self.stats.reset()
        self.hierarchy.reset_stats()
        self.bia.stats.reset()
        self.slice_trace.clear()
        self.dram.close_rows()

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every counter the experiment harness consumes."""
        snap: Dict[str, float] = dict(self.stats.as_dict())
        for cache in self.hierarchy.levels:
            snap[f"{cache.name.lower()}_hits"] = cache.stats.hits
            snap[f"{cache.name.lower()}_misses"] = cache.stats.misses
        snap["dram_reads"] = self.dram.stats.reads
        snap["dram_writes"] = self.dram.stats.writes
        snap["dram_accesses"] = self.dram.stats.accesses
        snap["llc_miss_total"] = self.llc.stats.misses
        snap["bia_lookups"] = self.bia.stats.lookups
        return snap

    # -- state forking ---------------------------------------------------------------------

    def save_state(self) -> "MachineState":
        """Snapshot the complete simulated state of this machine.

        The snapshot is structural (cache/BIA/DRAM metadata, counters)
        plus a copy of every backing-memory page, so later writes on
        either side leave it byte-exact, and it can be restored onto
        any machine of the same configuration any number of times.  A
        page copy costs about a microsecond; capturing the cache sets
        costs far more.
        """
        state = MachineState()
        state.config = self.config
        state.caches = [c.capture_state() for c in self.hierarchy.levels]
        state.bia = self.bia.capture_state()
        state.dram = self.dram.capture_state()
        state.pages = self.memory.copy_pages()
        state.alloc_next = self.allocator._next
        state.stats = self.stats.clone()
        state.slice_trace = list(self.slice_trace)
        state.user_mode = self.user_mode
        state.microcode_depth = self._microcode_depth
        prefetcher = self.hierarchy.prefetcher
        state.prefetcher_issued = 0 if prefetcher is None else prefetcher.issued
        return state

    def restore_state(
        self, state: "MachineState", _adopt: bool = False
    ) -> None:
        """Install a :meth:`save_state` snapshot on this machine.

        Only *simulated* state is restored; who observes this machine
        (EventBus subscriptions, the BIA attachment, back-invalidator
        wiring) is construction-time plumbing and is left untouched.

        ``_adopt=True`` (:meth:`fork`'s private fast path) lets the
        restore take ownership of the snapshot's mutable pieces (its
        replacement policies and its pages) instead of re-copying them;
        the caller promises the snapshot is ephemeral and never
        restored again.
        """
        if state.config != self.config:
            raise ConfigurationError(
                "machine state snapshot was taken under a different "
                "configuration; fork() or build an identical machine"
            )
        for cache, cache_state in zip(self.hierarchy.levels, state.caches):
            cache.restore_state(cache_state, adopt=_adopt)
        self.bia.restore_state(state.bia)
        self.dram.restore_state(state.dram)
        memory = self.memory
        memory.install_pages(state.pages)
        if not _adopt:
            # keep the snapshot restorable: write into a copy of it
            memory.install_pages(memory.copy_pages())
        self.allocator._next = state.alloc_next
        self.stats.load_from(state.stats)
        self.slice_trace[:] = state.slice_trace
        self.user_mode = state.user_mode
        self._microcode_depth = state.microcode_depth
        prefetcher = self.hierarchy.prefetcher
        if prefetcher is not None:
            prefetcher.issued = state.prefetcher_issued

    def fork(self) -> "Machine":
        """A new, independent machine continuing from this exact state.

        The warm-start primitive: build (and warm) one machine, then
        fork per run instead of rebuild + replay.  The clone gets copies
        of the parent's backing-memory pages, caches, BIA, DRAM and
        counters.  External listeners attached to the parent's event
        buses are NOT carried over — the clone has only its own
        construction-time wiring, so each fork can be instrumented
        independently.
        """
        clone = Machine(self.config)
        # The snapshot is ephemeral (never restored again), so the
        # restore may adopt its policy clones and page copies.
        clone.restore_state(self.save_state(), _adopt=True)
        return clone


def _check_sweep_offset(offset: int) -> None:
    """A sweep's word offset must stay on each DS line: a word-aligned
    offset in ``[0, LINE_SIZE)``.  Checked before anything is charged."""
    if not 0 <= offset < params.LINE_SIZE:
        raise ProtocolError(
            f"sweep offset {offset} outside the line [0, {params.LINE_SIZE})"
        )
    if offset % params.WORD_SIZE:
        raise AlignmentError(
            f"sweep offset {offset} not aligned to {params.WORD_SIZE}"
        )


class MachineState:
    """Opaque snapshot produced by :meth:`Machine.save_state`."""

    __slots__ = (
        "config",
        "caches",
        "bia",
        "dram",
        "pages",
        "alloc_next",
        "stats",
        "slice_trace",
        "user_mode",
        "microcode_depth",
        "prefetcher_issued",
    )


def build_machine(
    bia_level: str = "L1D", config: Optional[MachineConfig] = None, **overrides
) -> Machine:
    """Convenience factory: Table-1 machine with the BIA at ``bia_level``."""
    if config is None:
        config = MachineConfig(bia_level=bia_level, **overrides)
    return Machine(config)


class _MicrocodeScope:
    """Re-entrant privilege scope for macro-op execution."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine

    def __enter__(self) -> None:
        self._machine._microcode_depth += 1

    def __exit__(self, *exc) -> None:
        self._machine._microcode_depth -= 1
