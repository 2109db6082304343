"""Differential proof: bulk-access kernels == scalar loops, observably.

The batched kernels (:meth:`Machine.load_words` / ``store_words`` /
``rmw_words`` and the DS sweep wrappers) promise *observational
identity* with the scalar ``execute`` + ``load_word`` / ``store_word``
loops they replace: same counters, same event traces (when anyone
listens), same final cache state, same per-set access profiles, same
memory image, same returned values.  These properties drive both paths
on twin machines over Hypothesis-generated configurations — replacement
policies, set geometries, silent-store machines, listener presence —
and diff everything an attacker (or a figure) could read.

Every cycle cost is a whole number: ``CostModel`` rejects a ``cpi``
or ``ct_gather_repeat_latency`` that is not one, and ``MachineConfig``
does the same for every latency.  ``cycles`` therefore only ever adds
whole numbers, every partial sum is exact below 2**53, and the kernels
charge each batch as one sum (``n * pre_insts * cpi`` plus the summed
latency; one product per all-hit RMW run).  The ``configs`` strategy
draws the CPI from ``{1.0, 2.0, 3}`` so the sums are pinned against
the scalar loop at non-unit CPI too, int and float alike.
Consumer-level folds rest on the same rule: the software-CT gather
charges its per-word selects as one ``execute``, and Dijkstra its
public min-scan and relaxation (pinned against the per-vertex loop by
``tests/workloads/test_dijkstra_batched.py``).

``TestScalarPaths`` pins the scalar ``load_word``/``store_word`` (a
direct start-level probe, the hierarchy walked only on a miss) against
a full ``read_line``/``write_line`` walk per access, and
``test_listener_free_run_kernels_match_scalar_access`` pins the cache
level's run kernels, on a level without listeners, against one
``access`` per read or write under every policy.  ``TestBatchedMonitor``
pins the BIA's hit-run delivery against its per-event delivery, and
``TestFetchPass`` the BIA context's batched fetch pass against the
scalar fetch loop of Algorithms 2 and 3, and ``TestInsecureGather``
the insecure context's one-batch gather against one ``load`` per
address.  A batch whose start level has a per-event listener takes the
scalar loop itself; ``TestObservedBatches`` pins that the gate reads
the start level, not the levels below it.  ``TestForkContinuation`` pins that a ``fork()``
and a restored ``save_state`` continue exactly as the original.
``test_reference_counts_derive_from_op_counts`` pins ``l1i_refs`` and
``l1d_refs`` to the op counts they follow from.

The address sequences walk consecutive words and repeat addresses, so
the run-length kernels get real same-line runs: an unobserved
``store_words`` charges each run as one access plus counted hits, and
``ctload_words`` each same-group run as one BIA access plus counted
hits.  Every comparison includes each level's resident lines, dirty
bits and full replacement state (LRU stamps, tree-PLRU bits, FIFO fill
times, RNG positions) and the BIA's table, counters and LRU state,
listeners or not.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.observer import ObservableTraceRecorder
from repro.cache.events import CacheListener
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.costs import CostModel
from repro.core.machine import Machine, MachineConfig
from repro.errors import AlignmentError, ProtocolError

ARENA_LINES = 512  # 32 KiB arena: larger than a 4 KiB L1d, smaller than L2

#: (l1d_size, l1d_assoc) choices — from direct-mapped-ish tiny up to Table 1.
GEOMETRIES = [(4096, 4), (8192, 8), (16384, 2), (65536, 8)]

POLICIES = ["lru", "fifo", "random", "plru"]

#: Whole-number CPIs, float and int: the one-sum charges must match the
#: scalar loop at every one.
CPIS = [1.0, 2.0, 3]

configs = st.builds(
    lambda geom, policy, silent, seed, cpi: MachineConfig(
        l1d_size=geom[0],
        l1d_assoc=geom[1],
        replacement=policy,
        silent_stores=silent,
        replacement_seed=seed,
        costs=CostModel(cpi=cpi),
    ),
    geom=st.sampled_from(GEOMETRIES),
    policy=st.sampled_from(POLICIES),
    silent=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
    cpi=st.sampled_from(CPIS),
)


def _segment(line, word, length, stride):
    """``length`` arena words from ``(line, word)``, ``stride`` words
    apart (0 repeats one address), as ``(line, word)`` pairs."""
    start = 16 * line + word
    return [
        divmod((start + stride * j) % (16 * ARENA_LINES), 16)
        for j in range(length)
    ]


#: Sequences of segments: single words arena-wide (misses, evictions),
#: consecutive words (same-line runs, 16 per line) and repeated
#: addresses.  Half the segments start on a hot line: lines 0, 128, 256
#: and 384 share one L1d set in every geometry above, so revisiting
#: them reorders replacement state.
addr_seqs = st.lists(
    st.builds(
        _segment,
        st.one_of(
            st.sampled_from([0, 128, 256, 384]),
            st.integers(min_value=0, max_value=ARENA_LINES - 1),
        ),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0, 1, 1, 2]),
    ),
    min_size=1,
    max_size=12,
).map(lambda segments: [pair for seg in segments for pair in seg])

#: A fresh array's initialization: 64 consecutive words, four lines.
CONTIGUOUS_64 = _segment(0, 0, 64, 1)


def _store_config(config, extras, tiny):
    """``config`` with machinery that makes a run's first access miss
    again after its fill: a PLcache L1d (refused fills, see
    :func:`_lock_set_zero`), a prefetcher (with ``tiny``, a one-line
    L1d where the prefetch evicts the line just filled) or an inclusive
    LLC small enough to evict, and so back-invalidate, arena lines."""
    changes = {
        "plcache": {"plcache": True},
        "prefetcher": {"prefetcher": True},
        "inclusive": {
            "inclusive_llc": True,
            "l2_size": 16 * 1024,
            "l2_assoc": 4,
            "llc_size": 16 * 1024,
            "llc_assoc": 4,
        },
        "none": {},
    }[extras]
    if tiny:
        changes.update(l1d_size=64, l1d_assoc=1)
    return dataclasses.replace(config, **changes)


store_configs = st.builds(
    _store_config,
    configs,
    st.sampled_from(["none", "plcache", "prefetcher", "inclusive"]),
    st.booleans(),
)

#: The same extras for load, RMW and CT-sweep batches, so a prefetch or
#: a back-invalidation lands inside them.  The one-line L1d comes only
#: with the prefetcher: a batch over distinct lines never hits it, so
#: the geometries where the listener-free hit loops run keep four draws
#: in five.
extra_configs = st.builds(
    lambda config, extras: _store_config(config, *extras),
    configs,
    st.sampled_from([
        ("none", False),
        ("plcache", False),
        ("prefetcher", False),
        ("inclusive", False),
        ("prefetcher", True),
    ]),
)


def _lock_set_zero(m, base):
    """Pin every way of L1d set 0 with lines outside the arena, so the
    PLcache refuses every fill of an arena line mapping there (the hot
    lines of ``addr_seqs`` among them)."""
    l1d = m.l1d
    for k in range(l1d.assoc):
        line = base + 64 * (ARENA_LINES + k * l1d.num_sets)
        m.load_word(line)
        assert l1d.lock(line)


def _twins(config, listeners):
    """Two identical machines (+ recorders), arena base, listener flag.

    With ``listeners`` each machine gets a live BIA entry (the BIA
    takes hit runs) and a trace recorder on the L2 and the LLC, below
    the L1d where the batches here start: they stay on the run kernels,
    and the recorder sees their miss walks' events.  (A
    per-event listener on the start level sends a batch to the scalar
    loop itself; ``TestObservedBatches`` covers that gate.)  A PLcache
    L1d gets set 0 pinned (:func:`_lock_set_zero`), so fills of the
    arena lines mapping there are refused."""
    machines, recorders = [], []
    base = None
    for _ in range(2):
        m = Machine(config)
        base = m.allocator.alloc(ARENA_LINES * 64, "arena")
        rng = random.Random(99)
        for i in range(ARENA_LINES):
            m.memory.write_word(base + 64 * i, rng.randrange(1 << 32))
        if config.plcache:
            _lock_set_zero(m, base)
        if listeners:
            m.ctops.ctload(base)  # allocate a BIA entry: events now flow
            rec = ObservableTraceRecorder()
            for lvl in ("L2", "LLC"):
                rec.attach(m.hierarchy.level(lvl))
        else:
            rec = None
        machines.append(m)
        recorders.append(rec)
    return machines, recorders, base


def _set_state(cset):
    """Every slot of a set (a replacement policy): each way's line or
    BIA entry as a tuple of its fields, the key index, and the ranking
    state with an RNG as its state (LRU stamps, tree-PLRU bits, FIFO
    fill times, the random stream)."""
    out = {}
    for cls in type(cset).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(cset, slot)
            if slot == "ways":
                value = [None if item is None else dataclasses.astuple(item)
                         for item in value]
            elif isinstance(value, random.Random):
                value = value.getstate()
            out[slot] = value
    return out


def _replacement_state(cache):
    """The full state of every materialised set."""
    return [
        (idx, _set_state(cache._sets[idx])) for idx in sorted(cache._live)
    ]


def _bia_state(m):
    """The BIA's table, counters, LRU state and bus subscription."""
    sets, stats, live = m.bia.capture_state()
    table = [(idx, _set_state(bset)) for idx, bset in sets]
    return table, stats, live, m.bia._subscribed


def _assert_observably_equal(ma, mb, ra, rb, base, where=""):
    assert ma.snapshot() == mb.snapshot(), where
    for ca, cb in zip(ma.hierarchy.levels, mb.hierarchy.levels):
        sa, sb = ca.stats, cb.stats
        assert (sa.hits, sa.misses, sa.fills, sa.evictions,
                sa.dirty_evictions) == (
            sb.hits, sb.misses, sb.fills, sb.evictions, sb.dirty_evictions
        ), (where, ca.name)
        assert dict(sa.set_accesses) == dict(sb.set_accesses), (where, ca.name)
        # resident lines, dirty bits and replacement state, listeners or
        # not: recency order, and every touch a policy counted
        assert ca.occupied_sets() == cb.occupied_sets(), (where, ca.name)
        assert _replacement_state(ca) == _replacement_state(cb), (
            where, ca.name)
    assert ma.bia.resident_pages() == mb.bia.resident_pages(), where
    assert _bia_state(ma) == _bia_state(mb), where
    if ra is not None:
        assert ra.events == rb.events, where
        assert ra.final_state_digest() == rb.final_state_digest(), where
    for i in range(ARENA_LINES):
        a = base + 64 * i
        assert ma.memory.read_word(a) == mb.memory.read_word(a), (where, i)


def _assert_target_value(got, want, target):
    """A targeted ``rmw_words`` returns the target's loaded word only."""
    assert got[target] == want[target]
    assert all(v is None for i, v in enumerate(got) if i != target)


class _EventLog(CacheListener):
    """Every event of every level."""

    def __init__(self, machine):
        self.events = []
        for cache in machine.hierarchy.levels:
            cache.events.subscribe(self)

    def on_hit(self, name, line_addr, dirty):
        self.events.append(("hit", name, line_addr, dirty))

    def on_fill(self, name, line_addr, dirty):
        self.events.append(("fill", name, line_addr, dirty))

    def on_evict(self, name, line_addr, dirty):
        self.events.append(("evict", name, line_addr, dirty))

    def on_invalidate(self, name, line_addr):
        self.events.append(("inval", name, line_addr))

    def on_dirty(self, name, line_addr):
        self.events.append(("dirty", name, line_addr))

    def on_clean(self, name, line_addr):
        self.events.append(("clean", name, line_addr))


def _record_slice(m, line_addr, hit_level):
    if m.slice_hash is not None and hit_level in ("LLC", None):
        m.slice_trace.append(m.slice_hash.slice_of(line_addr))


def _bump(stats, kind, latency):
    """One load or store's counters; ``l1d_refs`` and ``l1i_refs``
    follow from them."""
    setattr(stats, kind, getattr(stats, kind) + 1)
    stats.insts += 1
    stats.cycles += latency


def reference_load_word(m, addr, start_level=0):
    """The scalar load as a full hierarchy walk per access."""
    line_addr = addr & ~63
    result = m.hierarchy.read_line(line_addr, start_level)
    _record_slice(m, line_addr, result.hit_level)
    _bump(m.stats, "loads", result.latency)
    return m.memory.read_word(addr)


def reference_store_word(m, addr, value, start_level=0):
    """The scalar store as a full hierarchy walk per access."""
    line_addr = addr & ~63
    if m.config.silent_stores and m.memory.read_word(addr) == value % (1 << 32):
        result = m.hierarchy.read_line(line_addr, start_level)
        _record_slice(m, line_addr, result.hit_level)
        _bump(m.stats, "stores", result.latency)
        return
    result = m.hierarchy.write_line(line_addr, start_level)
    _record_slice(m, line_addr, result.hit_level)
    m.memory.write_word(addr, value)
    _bump(m.stats, "stores", result.latency)


_HIT_PATH_OPS = [
    ("load", 0, 0, 0, 0),
    ("store", 0, 1, 0, 5),
    ("same", 0, 1, 0, 0),
    ("store", 0, 2, 0, 6),
    ("store", 1, 0, 1, -3),
    ("load", 1, 0, 2, 0),
    ("same", 1, 1, 2, 0),
    ("store", 1, 2, 2, 1 << 40),
]


class TestScalarPaths:
    """``load_word``/``store_word`` probe the start level directly and
    walk the hierarchy only on a miss; that must match a full
    ``read_line``/``write_line`` walk per access, observably."""

    @given(
        geom=st.sampled_from(GEOMETRIES),
        l2=st.sampled_from([(1 << 20, 16), (16 * 1024, 4)]),
        policy=st.sampled_from(POLICIES),
        silent=st.booleans(),
        sliced=st.booleans(),
        extras=st.sampled_from(["none", "prefetcher", "inclusive"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["load", "store", "same"]),
                # half the ops revisit a few hot lines: hits on clean and
                # dirty lines, next to misses and evictions arena-wide
                st.one_of(st.integers(0, 7), st.integers(0, ARENA_LINES - 1)),
                st.integers(0, 15),
                st.integers(0, 2),
                st.integers(-(1 << 40), 1 << 40),
            ),
            min_size=1,
            max_size=150,
        ),
        listeners=st.booleans(),
    )
    # Always-run cases: clean and dirty store hits, a squashed store,
    # a fill at an L2 start and LLC-start hits on the sliced machine.
    @example(geom=(65536, 8), l2=(1 << 20, 16), policy="lru", silent=False,
             sliced=False, extras="none", ops=_HIT_PATH_OPS, listeners=True)
    @example(geom=(65536, 8), l2=(1 << 20, 16), policy="lru", silent=True,
             sliced=True, extras="none", ops=_HIT_PATH_OPS, listeners=True)
    @settings(max_examples=60, deadline=None)
    def test_matches_hierarchy_walk(self, geom, l2, policy, silent, sliced,
                                    extras, ops, listeners):
        config = MachineConfig(
            l1d_size=geom[0], l1d_assoc=geom[1], l2_size=l2[0], l2_assoc=l2[1],
            replacement=policy, silent_stores=silent,
            prefetcher=extras == "prefetcher",
            inclusive_llc=extras == "inclusive",
            **({"bia_level": "LLC", "llc_slices": 8} if sliced else {}),
        )
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        la = lb = None
        if listeners:
            la, lb = _EventLog(ma), _EventLog(mb)
        for kind, line, word, level, value in ops:
            addr = base + 64 * line + 4 * word
            if kind == "load":
                got = ma.load_word(addr, start_level=level)
                want = reference_load_word(mb, addr, start_level=level)
                assert got == want
            else:
                if kind == "same":  # a silent-store candidate
                    value = ma.memory.read_word(addr)
                ma.store_word(addr, value, start_level=level)
                reference_store_word(mb, addr, value, start_level=level)
        assert ma.slice_trace == mb.slice_trace
        if listeners:
            assert la.events == lb.events
        for ca, cb in zip(ma.hierarchy.levels, mb.hierarchy.levels):
            assert ca.occupied_sets() == cb.occupied_sets(), ca.name
        _assert_observably_equal(ma, mb, ra, rb, base, "scalar paths")


def _kernel_lines(seed):
    """Hits on three lines that share set 0 of a 32-set 2-way cache,
    next to misses and evictions over four times its capacity."""
    rng = random.Random(seed)
    return [
        rng.choice([0, 32 * 64, 64 * 64]) if rng.random() < 0.4
        else rng.randrange(256) * 64
        for _ in range(600)
    ]


def _scalar_kernel(cache, lines, kernel):
    for line_addr in lines:
        if cache.access(line_addr) is None:
            cache.fill(line_addr)
        if kernel == "rmw":
            cache.access(line_addr)
        if kernel != "read":
            cache.set_dirty(line_addr)


def _batched_kernel(cache, lines, kernel, indexed):
    """The run kernel over ``lines``, resuming after each miss the way
    the hierarchy and the machine do, and charging the batch's profile
    once the way they do: one access per line, two per RMW pair, so a
    missed pair's store half probes unobserved.  ``indexed`` passes a
    cached decomposition, a tuple as a DS keeps, whose charge is
    deferred; otherwise the kernel computes the indices and the batch
    is counted from a list."""
    set_indices = tuple(cache.set_indices(lines)) if indexed else None
    if kernel == "rmw":
        run = cache.rmw_lines
        extra = ()
    else:
        run = cache.access_lines
        extra = (kernel == "write",)
    i = run(lines, 0, set_indices, *extra)
    cache.stats.charge(
        set_indices or cache.set_indices(lines), 2 if kernel == "rmw" else 1
    )
    while i < len(lines):
        line_addr = lines[i]
        cache.fill(line_addr)
        if kernel == "rmw":
            cache.access(line_addr, observable=False)
        if kernel != "read":
            cache.set_dirty(line_addr)
        i = run(lines, i + 1, set_indices, *extra)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kernel", ["read", "write", "rmw"])
@pytest.mark.parametrize("indexed", [True, False])
def test_listener_free_run_kernels_match_scalar_access(
    policy, kernel, indexed
):
    """``access_lines`` (``mark_dirty`` for writes) and ``rmw_lines`` on a
    listener-free level: the same counters, per-set profile (charged
    once per batch by its owner, not by the kernels), contents, dirty
    bits and raw replacement state as one ``access`` per read or
    write."""
    scalar, batched = (
        SetAssociativeCache("C", 4 * 1024, 2, latency=1, replacement=policy)
        for _ in range(2)
    )
    lines = _kernel_lines(5)
    _scalar_kernel(scalar, lines, kernel)
    _batched_kernel(batched, lines, kernel, indexed)
    sa, sb = scalar.stats, batched.stats
    assert sa.misses > 0 and sa.hits > 0
    assert (sb.hits, sb.misses, sb.fills, sb.evictions) == (
        sa.hits, sa.misses, sa.fills, sa.evictions)
    assert sb.set_accesses == sa.set_accesses
    assert batched.occupied_sets() == scalar.occupied_sets()
    assert _replacement_state(batched) == _replacement_state(scalar)


class TestLoadWords:
    @given(config=extra_configs, seq=addr_seqs, pre=st.integers(0, 4),
           listeners=st.booleans(), collect=st.booleans())
    # Always run: listener-free LRU hits, whose touches only the
    # replacement-state comparison sees.
    @example(config=MachineConfig(), seq=CONTIGUOUS_64, pre=0,
             listeners=False, collect=True)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, config, seq, pre, listeners, collect):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        got = ma.load_words(addrs, pre_insts=pre, collect_values=collect)
        want = []
        for a in addrs:
            if pre:
                mb.execute(pre)
            want.append(mb.load_word(a))
        if collect:
            assert got == want
        else:
            assert got is None
        _assert_observably_equal(ma, mb, ra, rb, base, "load_words")


class TestStoreWords:
    @given(config=store_configs, seq=addr_seqs, pre=st.integers(0, 4),
           listeners=st.booleans())
    # Always run: a fresh array's initialization, every run's first
    # word a miss, on the Table 1 machine and on a refusing PLcache.
    @example(config=MachineConfig(), seq=CONTIGUOUS_64, pre=0,
             listeners=False)
    @example(config=MachineConfig(plcache=True, l1d_size=64, l1d_assoc=1),
             seq=CONTIGUOUS_64, pre=1, listeners=False)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, config, seq, pre, listeners):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        rng = random.Random(5)
        values = [rng.randrange(1 << 32) for _ in addrs]
        # Some silent-store candidates: rewrite the current contents.
        for i in range(0, len(addrs), 3):
            values[i] = ma.memory.read_word(addrs[i])
        ma.store_words(addrs, values, pre_insts=pre)
        for a, v in zip(addrs, values):
            if pre:
                mb.execute(pre)
            mb.store_word(a, v)
        _assert_observably_equal(ma, mb, ra, rb, base, "store_words")


@pytest.mark.parametrize("path", ["bulk", "silent-stores", "sliced-llc"])
@pytest.mark.parametrize("n_values", [3, 9])
def test_store_words_rejects_mismatched_lengths(path, n_values):
    """Both store_words paths refuse a length mismatch before any access."""
    config = {
        "bulk": MachineConfig(),
        "silent-stores": MachineConfig(silent_stores=True),
        "sliced-llc": MachineConfig(bia_level="LLC", llc_slices=8),
    }[path]
    m = Machine(config)
    base = m.allocator.alloc(8 * 64, "b")
    before = m.snapshot()
    with pytest.raises(ProtocolError, match="8 addresses and"):
        m.store_words([base + 64 * i for i in range(8)], list(range(n_values)))
    assert m.snapshot() == before
    assert not list(m.memory.touched_pages())


@pytest.mark.parametrize("path", ["bulk", "silent-stores", "sliced-llc"])
@pytest.mark.parametrize("target_idx, fn, match", [
    (3, None, "needs a target_fn"),
    (8, lambda v: v + 1, r"outside \[-1, 8\)"),
    (-2, lambda v: v + 1, r"outside \[-1, 8\)"),
])
def test_rmw_words_rejects_bad_target(path, target_idx, fn, match):
    """Every rmw_words path refuses a target it cannot write before any
    access: a target_idx outside [-1, n), or one without a target_fn."""
    config = {
        "bulk": MachineConfig(),
        "silent-stores": MachineConfig(silent_stores=True),
        "sliced-llc": MachineConfig(bia_level="LLC", llc_slices=8),
    }[path]
    m = Machine(config)
    base = m.allocator.alloc(8 * 64, "b")
    before = m.snapshot()
    with pytest.raises(ProtocolError, match=match):
        m.rmw_words([base + 64 * i for i in range(8)], target_idx=target_idx,
                    target_fn=fn)
    assert m.snapshot() == before
    assert all(c.stats.accesses == 0 for c in m.hierarchy.levels)
    assert not list(m.memory.touched_pages())


class TestRmwWords:
    # ``warm``: a load_words batch first makes the lines resident and
    # clean, so pairs hit lines the batch has not dirtied yet.
    @given(config=extra_configs, seq=addr_seqs, pre=st.integers(0, 4),
           listeners=st.booleans(), target_frac=st.floats(0, 1),
           warm=st.booleans())
    # Always run: listener-free LRU pair hits on resident clean lines,
    # whose stamps and dirty transitions only the state comparison sees.
    @example(config=MachineConfig(), seq=CONTIGUOUS_64, pre=0,
             listeners=False, target_frac=0.5, warm=True)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, config, seq, pre, listeners, target_frac,
                            warm):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        if warm:
            for m in (ma, mb):
                m.load_words(addrs)
        target = int(target_frac * (len(addrs) - 1))
        fn = lambda v: (v * 3 + 1) & 0xFFFFFFFF  # noqa: E731
        got = ma.rmw_words(
            addrs, target_idx=target, target_fn=fn, pre_insts=pre
        )
        want = []
        for i, a in enumerate(addrs):
            if pre:
                mb.execute(pre)
            v = mb.load_word(a)
            want.append(v)
            mb.store_word(a, fn(v) if i == target else v)
        _assert_target_value(got, want, target)
        _assert_observably_equal(ma, mb, ra, rb, base, "rmw_words")


    @given(config=configs, sliced=st.booleans(), seq=addr_seqs,
           pre=st.integers(0, 4), listeners=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_per_element_form_matches_scalar(self, config, sliced, seq, pre,
                                             listeners):
        """``update_fn`` writes ``fn(i, v)`` at every element, as a
        scalar load + store loop does — silent stores included, where a
        value-identical result must be squashed and any other stored."""
        if sliced:
            config = dataclasses.replace(config, bia_level="LLC", llc_slices=8)
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]

        def fn(i, v):
            # every third element rewrites its own value (a silent-store
            # candidate); the others store wide or negative values the
            # word size wraps
            return v if i % 3 == 0 else v - 7 * i + ((i & 1) << 40)

        got = ma.rmw_words(addrs, update_fn=fn, pre_insts=pre)
        want = []
        for i, a in enumerate(addrs):
            if pre:
                mb.execute(pre)
            v = mb.load_word(a)
            want.append(v)
            mb.store_word(a, fn(i, v))
        assert got == want
        assert ma.slice_trace == mb.slice_trace
        _assert_observably_equal(ma, mb, ra, rb, base, "rmw_words/update_fn")


#: ctload_words machines: a small BIA (4 sets x 2 ways, so a batch over
#: many groups allocates and evicts entries) at each level, the LLC one
#: at a sub-page management granularity (M = 9: eight lines per group),
#: and a sliced LLC, whose CT-op traffic hook takes the scalar loop.
CT_CONFIGS = {
    "L1D": dict(bia_level="L1D"),
    "L2": dict(bia_level="L2"),
    "LLC-M9": dict(bia_level="LLC", ls_hash=9),
    "LLC-sliced": dict(bia_level="LLC", llc_slices=8),
}
CT_PAGES = 24


def _ct_twins(kind):
    config = MachineConfig(bia_entries=8, bia_assoc=2, **CT_CONFIGS[kind])
    machines = [Machine(config), Machine(config)]
    base = None
    for m in machines:
        base = m.allocator.alloc(CT_PAGES * 4096, "pages")
        rng = random.Random(7)
        for i in range(0, CT_PAGES * 1024, 5):
            m.memory.write_word(base + 4 * i, rng.randrange(1 << 32))
    return machines, base


ct_ops = st.lists(
    st.tuples(
        st.sampled_from(["ctload", "ctload", "load", "store"]),
        st.integers(0, CT_PAGES * 1024 - 1),
        st.integers(1, 40),
        # repeats, consecutive words, consecutive lines, one per page
        st.sampled_from([0, 1, 16, 1024, 4100]),
    ),
    min_size=1,
    max_size=20,
)


class TestCTLoadWords:
    """``ctload_words`` == the scalar ``execute`` + ``ctload`` loop."""

    @given(kind=st.sampled_from(list(CT_CONFIGS)), ops=ct_ops,
           pre=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, kind, ops, pre):
        (ma, mb), base = _ct_twins(kind)
        words = CT_PAGES * 1024
        for op, start, length, stride in ops:
            addrs = [
                base + 4 * ((start + stride * j) % words) for j in range(length)
            ]
            if op == "ctload":
                got = ma.ctload_words(addrs, pre)
                data, existence = [], None
                for a in addrs:
                    if pre:
                        mb.execute(pre)
                    word, existence = mb.ctload(a)
                    data.append(word)
                assert got == (data, existence)
            else:
                # plain traffic between batches: resident lines give
                # CTLoads real data, and monitor updates move the bitmaps
                for m in (ma, mb):
                    for a in addrs[:4]:
                        if op == "load":
                            m.load_word(a)
                        else:
                            m.store_word(a, a & 0xFFFF)
            assert _bia_state(ma) == _bia_state(mb), op
        assert ma.slice_trace == mb.slice_trace
        _assert_observably_equal(ma, mb, None, None, base, "ctload_words")

    def test_empty_batch(self):
        (ma, mb), _base = _ct_twins("L1D")
        assert ma.ctload_words([], 5) == ([], None)
        assert ma.snapshot() == mb.snapshot()

    @pytest.mark.parametrize("kind", ["L1D", "LLC-sliced"])
    def test_user_mode_matches_scalar_loop(self, kind):
        """Outside microcode the first CTLoad raises, leaving the scalar
        loop's counters; inside microcode the batch runs."""
        (ma, mb), base = _ct_twins(kind)
        addrs = [base + 4 * k for k in range(20)]
        for m in (ma, mb):
            m.user_mode = True
        with pytest.raises(ProtocolError):
            ma.ctload_words(addrs, 3)
        with pytest.raises(ProtocolError):
            for a in addrs:
                mb.execute(3)
                mb.ctload(a)
        assert ma.snapshot() == mb.snapshot()
        assert _bia_state(ma) == _bia_state(mb)
        with ma.microcode():
            got = ma.ctload_words(addrs, 3)
        with mb.microcode():
            want = []
            for a in addrs:
                mb.execute(3)
                want.append(mb.ctload(a))
        assert got == ([d for d, _ in want], want[-1][1])
        assert ma.snapshot() == mb.snapshot()
        assert _bia_state(ma) == _bia_state(mb)


def reference_bia_gather(ctx, ds, addrs):
    """``BIAContext.gather`` with one ``execute`` + ``ctload`` per
    request and one ``execute`` per captured word."""
    from repro.memory import address as addr_math

    machine = ctx.machine
    costs = machine.costs
    machine.execute(costs.bia_call_insts)
    view = ctx._view(ds)
    by_group = {}
    for i, a in enumerate(addrs):
        by_group.setdefault(view.group_of(a), []).append(i)
    results = [0] * len(addrs)
    offset = addr_math.line_offset(addrs[0]) if addrs else 0
    for group in view.groups:
        machine.execute(costs.bia_page_insts)
        pending = {}
        for i in by_group.get(group, ()):
            machine.execute(costs.gather_elem_insts)
            results[i], _existence = machine.ctload(addrs[i])
            pending.setdefault(addr_math.line_base(addrs[i]), []).append(i)
        probe_addr = (group << view.group_bits) + offset
        _data, existence = machine.ctload(probe_addr)
        tofetch = view.bitmask(group) & ~existence
        fetched = ctx._fetch_pass(
            view, group, probe_addr, tofetch, capture_lines=set(pending)
        )
        for line, indices in pending.items():
            if line in fetched:
                for i in indices:
                    machine.execute(costs.gather_elem_insts)
                    results[i] = machine.memory.read_word(addrs[i])
    return results


class TestBIAGather:
    """The batched BIA gather == its per-request form, observably."""

    #: a 12-page DS: still more groups than the BIA has ways per set
    PAGES = 12

    @given(kind=st.sampled_from(["L1D", "L2", "LLC-M9"]), gathers=st.lists(
        st.tuples(st.integers(0, PAGES * 1024 - 1), st.integers(1, 200),
                  st.sampled_from([1, 16, 97])),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_request_form(self, kind, gathers):
        from repro.ct.bia_ops import BIAContext

        (ma, mb), base = _ct_twins(kind)
        ctx_a, ctx_b = BIAContext(ma), BIAContext(mb)
        size = self.PAGES * 4096
        ds_a = ctx_a.register_ds(base, size, "pages")
        ds_b = ctx_b.register_ds(base, size, "pages")
        words = self.PAGES * 1024
        for start, length, stride in gathers:
            addrs = [
                base + 4 * ((start + stride * j) % words) for j in range(length)
            ]
            assert ctx_a.gather(ds_a, addrs) == reference_bia_gather(
                ctx_b, ds_b, addrs
            )
            assert _bia_state(ma) == _bia_state(mb)
        _assert_observably_equal(ma, mb, None, None, base, "bia gather")


class TestInsecureGather:
    """``InsecureContext.gather`` (every membership check, then one
    ``load_words`` batch) == one ``load`` per address: values, snapshot,
    per-level stats, set profiles and set state, with listeners below
    the L1d or not, and with a per-event L1d listener, which sends the
    batch to the scalar loop."""

    @given(config=extra_configs, seq=addr_seqs, listeners=st.booleans(),
           l1d_listener=st.booleans())
    @example(config=MachineConfig(), seq=CONTIGUOUS_64, listeners=False,
             l1d_listener=True)
    @settings(max_examples=30, deadline=None)
    def test_matches_per_address_loads(self, config, seq, listeners,
                                       l1d_listener):
        from repro.ct.context import InsecureContext

        (ma, mb), (ra, rb), base = _twins(config, listeners)
        if l1d_listener:
            if ra is None:
                ra, rb = ObservableTraceRecorder(), ObservableTraceRecorder()
            ra.attach(ma.l1d)
            rb.attach(mb.l1d)
            assert ma.l1d.events.per_event
        ctx_a, ctx_b = InsecureContext(ma), InsecureContext(mb)
        ds_a = ctx_a.register_ds(base, ARENA_LINES * 64, "arena")
        ds_b = ctx_b.register_ds(base, ARENA_LINES * 64, "arena")
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        got = ctx_a.gather(ds_a, addrs)
        assert got == [ctx_b.load(ds_b, a) for a in addrs]
        if l1d_listener:
            assert ra.events
        _assert_observably_equal(ma, mb, ra, rb, base, "insecure gather")

    def test_checks_every_member_before_any_load(self):
        from repro.ct.context import InsecureContext

        m = Machine(MachineConfig())
        base = m.allocator.alloc(ARENA_LINES * 64, "arena")
        ctx = InsecureContext(m)
        ds = ctx.register_ds(base, 64, "line")
        before = m.snapshot()
        with pytest.raises(ProtocolError):
            ctx.gather(ds, [base, base + 4, base + 64])
        assert m.snapshot() == before


#: Pages of the DS the BIA ops below work on; plain traffic spans all
#: ``CT_PAGES``.  Six groups fit the 8-entry BIA at page granularity,
#: and at M = 9 (48 groups) they make it allocate and evict.
DS_PAGES = 6

#: Plain batches, scalar accesses and BIA ops over the ``_ct_twins``
#: pages: repeated words, consecutive words and lines, lines 8 KiB
#: apart (one L1d set), one word per page.
monitor_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "load_words", "store_words", "rmw_words", "load", "store",
            "bia_load", "bia_store", "bia_gather",
        ]),
        st.integers(0, CT_PAGES * 1024 - 1),
        st.integers(1, 40),
        st.sampled_from([0, 1, 16, 2048, 1024, 4100]),
    ),
    min_size=1,
    max_size=15,
)


def _monitor_op(ctx, ds, base, op, start, length, stride):
    """One ``monitor_ops`` op on ``ctx``'s machine; returns its result."""
    m = ctx.machine
    words = CT_PAGES * 1024
    if op.startswith("bia"):
        words = DS_PAGES * 1024  # DS members only
    addrs = [base + 4 * ((start + stride * j) % words) for j in range(length)]
    values = [(start + 7 * j) & 0xFFFF for j in range(length)]
    if op == "load_words":
        return m.load_words(addrs)
    if op == "store_words":
        return m.store_words(addrs, values)
    if op == "rmw_words":
        return m.rmw_words(addrs, update_fn=lambda i, v: v + i + 1)
    if op == "load":
        return [m.load_word(a) for a in addrs[:4]]
    if op == "store":
        return [m.store_word(a, v) for a, v in zip(addrs[:4], values)]
    if op == "bia_load":
        return ctx.load(ds, addrs[0])
    if op == "bia_store":
        return ctx.store(ds, addrs[0], values[0])
    return ctx.gather(ds, addrs)


def _image(m, base):
    """The memory image of the ``_ct_twins`` pages."""
    return m.memory.read(base, CT_PAGES * 4096)


def _bia_twins(kind, context_classes, fetch_threshold=None):
    """``_ct_twins`` machines with one BIA context each over a
    ``DS_PAGES`` DS: ``[(ctx, ds), (ctx, ds)], base``."""
    machines, base = _ct_twins(kind)
    sides = []
    for m, cls in zip(machines, context_classes):
        ctx = cls(m, fetch_threshold=fetch_threshold)
        sides.append((ctx, ctx.register_ds(base, DS_PAGES * 4096, "pages")))
    return sides, base


class _EveryEvent(CacheListener):
    """A no-op listener that keeps the default ``on_hit_run``:
    subscribed to a level, it sends the batches that start there to
    the machine's scalar loop."""


class TestBatchedMonitor:
    """The BIA's hit-run delivery leaves the same table as one
    ``on_hit`` (and ``on_dirty``) per access: twin machines, one with a
    per-event listener on the BIA's level, driven through the same
    plain, scalar and BIA ops.  The listener sends that twin's batches
    at the BIA's level to the scalar loop, so its BIA sees every hit as
    its own event."""

    @given(kind=st.sampled_from(["L1D", "L2", "LLC-M9"]), ops=monitor_ops)
    # Always run: eight dirty lines of one L1d set, which the BIA load's
    # fetch pass then hits as a read run (their dirtiness bits must
    # follow), hit again as one run, then a miss in that set whose fill
    # evicts the run's first line.  The run reaches the BIA before the
    # fill, so the eviction clears the bit the run set; delivered after
    # it, the bit would claim an absent line.
    @example(kind="L1D", ops=[
        ("store_words", 0, 8, 2048), ("bia_load", 0, 1, 0),
        ("load_words", 0, 9, 2048),
    ])
    @settings(max_examples=40, deadline=None)
    def test_matches_per_event_monitor(self, kind, ops):
        from repro.ct.bia_ops import BIAContext

        ((ctx_a, ds_a), (ctx_b, ds_b)), base = _bia_twins(
            kind, (BIAContext, BIAContext))
        ma, mb = ctx_a.machine, ctx_b.machine
        level_a = ma.hierarchy.level(ma.config.bia_level)
        level_b = mb.hierarchy.level(mb.config.bia_level)
        level_b.events.subscribe(_EveryEvent())
        for op in ops:
            got = _monitor_op(ctx_a, ds_a, base, *op)
            assert got == _monitor_op(ctx_b, ds_b, base, *op), op
            assert _bia_state(ma) == _bia_state(mb), op
            assert ma.bia.check_subset_of(level_a), op
            assert _image(ma, base) == _image(mb, base), op
        # the BIA, live or not, never sends its level's batches to the
        # scalar loop
        assert not level_a.events.per_event and level_b.events.per_event
        assert level_a.events.has_listeners == (ma.bia._live_entries > 0)
        _assert_observably_equal(ma, mb, None, None, base, "bia monitor")


class TestObservedBatches:
    """The scalar-loop gate reads the batch's *start* level: an L2-only
    per-event listener sends L2-start batches to the scalar loop and
    leaves L1d-start batches on the run kernels, whose misses reach it
    through the scalar miss walk.  Both equal the scalar loop, events
    included, on a live L2 BIA machine."""

    @staticmethod
    def _twins():
        config = MachineConfig(bia_level="L2")
        (ma, mb), _recorders, base = _twins(config, False)
        recorders = []
        for m in (ma, mb):
            m.ctops.ctload(base)  # a live BIA entry: hit runs flow to it
            rec = ObservableTraceRecorder()
            rec.attach(m.l2)
            recorders.append(rec)
        assert ma.l2.events.per_event and not ma.l1d.events.per_event
        return ma, mb, recorders, base

    @staticmethod
    def _spy(cache):
        """Record every ``access_lines`` call on ``cache``."""
        calls = []
        kernel = cache.access_lines

        def spy(*args):
            calls.append(args[1] if len(args) > 1 else 0)
            return kernel(*args)

        cache.access_lines = spy
        return calls

    @given(seq=addr_seqs, pre=st.integers(0, 3), target_frac=st.floats(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_l2_start_batches_take_the_scalar_loop(self, seq, pre,
                                                   target_frac):
        ma, mb, (ra, rb), base = self._twins()
        calls = self._spy(ma.l2)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        got = ma.load_words(addrs, start_level=1, pre_insts=pre)
        want = []
        for a in addrs:
            if pre:
                mb.execute(pre)
            want.append(mb.load_word(a, 1))
        assert got == want
        _assert_observably_equal(ma, mb, ra, rb, base, "load_words@L2")
        target = int(target_frac * (len(addrs) - 1))
        fn = lambda v: (v ^ 0x5A5A) + 1  # noqa: E731
        got = ma.rmw_words(addrs, target_idx=target, target_fn=fn,
                           start_level=1, pre_insts=pre)
        want = []
        for i, a in enumerate(addrs):
            if pre:
                mb.execute(pre)
            v = mb.load_word(a, 1)
            want.append(v)
            mb.store_word(a, fn(v) if i == target else v, 1)
        _assert_target_value(got, want, target)
        assert calls == []
        assert ra.events
        _assert_observably_equal(ma, mb, ra, rb, base, "rmw_words@L2")

    @given(seq=addr_seqs, pre=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_l1d_start_batches_keep_the_kernels(self, seq, pre):
        ma, mb, (ra, rb), base = self._twins()
        calls = self._spy(ma.l1d)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        values = [(a * 7) & 0xFFFF for a in addrs]
        got = ma.load_words(addrs, pre_insts=pre)
        assert calls[:1] == [0]  # the batch started on the kernel
        calls.clear()
        ma.store_words(addrs, values, pre_insts=pre)
        assert calls[:1] == [0]
        want = []
        for a in addrs:
            if pre:
                mb.execute(pre)
            want.append(mb.load_word(a))
        for a, v in zip(addrs, values):
            if pre:
                mb.execute(pre)
            mb.store_word(a, v)
        assert got == want
        assert ra.events
        _assert_observably_equal(ma, mb, ra, rb, base, "L1d batches")


#: ``Machine().snapshot()``'s keys before ``l1i_refs`` and ``l1d_refs``
#: became properties.
SNAPSHOT_KEYS = [
    "bia_lookups", "ct_loads", "ct_stores", "cycles", "dram_accesses",
    "dram_reads", "dram_writes", "insts", "l1d_hits", "l1d_misses",
    "l1d_refs", "l1i_refs", "l2_hits", "l2_misses", "llc_hits",
    "llc_miss_total", "llc_misses", "loads", "stores",
]


@given(kind=st.sampled_from(["L1D", "L2"]), ops=st.lists(
    st.tuples(
        st.sampled_from([
            "execute", "load", "store", "load_words", "store_words",
            "rmw_words", "ctload", "ctstore", "ctload_words",
            "charge_memory", "load_uncached", "store_uncached", "fork",
        ]),
        st.integers(0, CT_PAGES * 1024 - 1),
        st.integers(1, 20),
        st.integers(0, 3),
    ),
    min_size=1, max_size=15,
))
@settings(max_examples=30, deadline=None)
def test_reference_counts_derive_from_op_counts(kind, ops):
    """``l1i_refs`` is ``insts`` and ``l1d_refs`` is ``loads + stores +
    ct_loads + ct_stores`` after every scalar, batch and CT op, across
    forks, and both move by what each op's charge site used to add to
    them by hand; neither can be assigned, and the snapshot keeps its
    keys."""
    (m, _), base = _ct_twins(kind)
    words = CT_PAGES * 1024
    want = (0, 0)  # (l1i_refs, l1d_refs)
    for op, start, n, pre in ops:
        addrs = [base + 4 * ((start + 5 * j) % words) for j in range(n)]
        a = addrs[0]
        if op == "execute":
            m.execute(n)
            delta = (n, 0)
        elif op == "load":
            m.load_word(a, m.ds_start_level)
            delta = (1, 1)
        elif op == "store":
            m.store_word(a, start)
            delta = (1, 1)
        elif op == "load_words":
            m.load_words(addrs, pre_insts=pre)
            delta = (n * (pre + 1), n)
        elif op == "store_words":
            m.store_words(addrs, list(range(n)), pre_insts=pre)
            delta = (n * (pre + 1), n)
        elif op == "rmw_words":
            m.rmw_words(addrs, update_fn=lambda i, v: v + i, pre_insts=pre)
            delta = (n * (pre + 2), 2 * n)
        elif op == "ctload":
            m.ctload(a)
            delta = (1, 1)
        elif op == "ctstore":
            m.ctstore(a, start)
            delta = (1, 1)
        elif op == "ctload_words":
            m.ctload_words(addrs, pre_insts=pre)
            delta = (n * (pre + 1), n)
        elif op == "charge_memory":
            m.charge_memory(n, 2)
            delta = (n, n)
        elif op == "load_uncached":
            m.load_word_uncached(a)
            delta = (1, 1)
        elif op == "store_uncached":
            m.store_word_uncached(a, start)
            delta = (1, 1)
        else:
            m = m.fork()
            delta = (0, 0)
        want = (want[0] + delta[0], want[1] + delta[1])
        stats = m.stats
        assert (stats.l1i_refs, stats.l1d_refs) == want, op
        assert stats.l1i_refs == stats.insts, op
        assert stats.l1d_refs == (
            stats.loads + stats.stores + stats.ct_loads + stats.ct_stores
        ), op
        snap = m.snapshot()
        assert (snap["l1i_refs"], snap["l1d_refs"]) == want, op
    for name in ("l1i_refs", "l1d_refs"):
        with pytest.raises(AttributeError):
            setattr(m.stats, name, 0)
    assert sorted(Machine().snapshot()) == SNAPSHOT_KEYS


def reference_fetch_pass(ctx, view, group, orig_addr, tofetch, capture=None,
                         capture_lines=None, store_value=None,
                         store_addr=None):
    """Alg. 2/3's fetch loop as written: per fetched address one
    ``execute(bia_fetch_elem_insts)`` and one ``load_word`` at the BIA's
    level (the DRAM-bypass load at or above the fetch threshold),
    capturing the fetched word, and for stores one ``store_word`` of it,
    or of the new value at the true target address (line 14)."""
    m = ctx.machine
    fetchset = view.generate_addrs(group, orig_addr, tofetch)
    use_dram = (ctx.fetch_threshold is not None
                and len(fetchset) >= ctx.fetch_threshold)
    start = m.ds_start_level
    out = {}
    for address in fetchset:
        m.execute(m.costs.bia_fetch_elem_insts)
        if use_dram:
            tmpdata = m.load_word_uncached(address)
        else:
            tmpdata = m.load_word(address, start)
        if capture is not None and address in capture:
            out[address] = tmpdata
        if capture_lines is not None and address & ~63 in capture_lines:
            out[address & ~63] = tmpdata
        if store_value is not None:
            if address == store_addr:
                tmpdata = store_value
            if use_dram:
                m.store_word_uncached(address, tmpdata)
            else:
                m.store_word(address, tmpdata, start)
    return out


class TestFetchPass:
    """``BIAContext``'s batched fetch pass == the scalar fetch loop, for
    Alg. 2 loads, Alg. 3 stores and gathers, with the Sec. 6.5 fetch
    threshold off and on."""

    @given(kind=st.sampled_from(["L1D", "L2", "LLC-M9"]),
           threshold=st.sampled_from([None, 1, 8, 40]), ops=monitor_ops)
    # Always run, on the L1d BIA: the BIA load fetches all six pages,
    # and eight lines 8 KiB apart then evict line 0 of pages 0, 2 and
    # 4.  The next BIA load has one-line fetch sets and captures its
    # word from one; the BIA store's fetch pass writes its target.
    @example(kind="L1D", threshold=None, ops=[
        ("bia_load", 0, 1, 0), ("load_words", 6144, 8, 2048),
        ("bia_load", 1, 1, 0), ("bia_store", 9, 1, 0),
    ])
    # Lines 0 and 1 of pages 0, 2 and 4 evicted: the gather captures
    # two fetched lines of one group.
    @example(kind="L1D", threshold=None, ops=[
        ("bia_load", 0, 1, 0), ("load_words", 6144, 8, 2048),
        ("load_words", 6160, 8, 2048), ("bia_gather", 0, 2, 16),
    ])
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_fetch_loop(self, kind, threshold, ops):
        from repro.ct.bia_ops import BIAContext

        class ScalarFetchContext(BIAContext):
            def _fetch_pass(self, *args, **kwargs):
                return reference_fetch_pass(self, *args, **kwargs)

        ((ctx_a, ds_a), (ctx_b, ds_b)), base = _bia_twins(
            kind, (BIAContext, ScalarFetchContext), threshold)
        ma, mb = ctx_a.machine, ctx_b.machine
        for op in ops:
            got = _monitor_op(ctx_a, ds_a, base, *op)
            assert got == _monitor_op(ctx_b, ds_b, base, *op), op
            assert _bia_state(ma) == _bia_state(mb), op
            assert ma.snapshot() == mb.snapshot(), op
            assert _image(ma, base) == _image(mb, base), op
        _assert_observably_equal(ma, mb, None, None, base, "fetch pass")


class TestCTSweepOps:
    """The software-CT context's batched sweeps vs its scalar contract."""

    @given(config=extra_configs, ops=st.lists(
        st.tuples(st.sampled_from(["load", "store", "rmw", "gather"]),
                  st.integers(0, ARENA_LINES - 1)),
        min_size=1, max_size=12,
    ), listeners=st.booleans())
    # Always run: listener-free LRU sweeps whose later ops hit lines the
    # first sweep left resident and clean, so every pair's two LRU
    # touches and its dirty transition show in the final state.
    @example(config=MachineConfig(), ops=[
        ("load", 3), ("store", 5), ("load", 7), ("rmw", 9), ("gather", 4),
    ], listeners=False)
    @settings(max_examples=25, deadline=None)
    def test_context_ops_match_scalar_reference(self, config, ops,
                                                listeners):
        from repro.ct.linearize import SoftwareCTContext
        from repro.memory import address as addr_math

        (ma, mb), (ra, rb), base = _twins(config, listeners)
        ctx = SoftwareCTContext(ma, simd=True)
        ds = ctx.register_ds(base, ARENA_LINES * 64, "arena")
        ds_b = None  # scalar reference needs only the line list
        lines = list(ds.lines)
        costs = mb.costs
        elem = costs.ct_simd_elem_insts
        store_elem = elem + costs.ct_store_elem_extra_insts

        for kind, line_idx in ops:
            addr = base + 64 * line_idx + 4 * (line_idx % 16)
            if kind == "load":
                got = ctx.load(ds, addr)
                # scalar reference: visit + per-line (execute; load)
                mb.execute(costs.ct_visit_insts)
                off = addr_math.line_offset(addr)
                want = None
                for ln in lines:
                    mb.execute(elem)
                    v = mb.load_word(ln + off)
                    if ln == addr_math.line_base(addr):
                        want = v
                assert got == want
            elif kind in ("store", "rmw"):
                fn = (lambda v: (v + 7) & 0xFFFFFFFF)
                if kind == "store":
                    ctx.store(ds, addr, 1234 + line_idx)
                else:
                    got = ctx.rmw(ds, addr, fn)
                mb.execute(costs.ct_visit_insts)
                off = addr_math.line_offset(addr)
                tgt = addr_math.line_base(addr)
                for ln in lines:
                    mb.execute(store_elem)
                    v = mb.load_word(ln + off)
                    if ln == tgt:
                        if kind == "rmw":
                            assert got == v
                            new = fn(v)
                        else:
                            new = 1234 + line_idx
                    else:
                        new = v
                    mb.store_word(ln + off, new)
            else:  # gather
                width = 1 + line_idx % 7
                rng = random.Random(line_idx)
                batch = [
                    base + 64 * rng.randrange(ARENA_LINES) for _ in range(width)
                ]
                got = ctx.gather(ds, batch)
                # scalar reference: visit + one full sweep + selects +
                # charged repeats (identical to the context's contract)
                mb.execute(costs.ct_visit_insts)
                for ln in lines:
                    mb.execute(elem)
                    mb.load_word(ln)
                mb.execute(costs.gather_elem_insts * len(batch))
                want = [mb.memory.read_word(a) for a in batch]
                wanted_lines = {addr_math.line_base(a) for a in batch}
                repeats = max(len(wanted_lines) - 1, 0)
                if repeats:
                    mb.execute(repeats * costs.ct_visit_insts)
                    mb.charge_memory(
                        repeats * len(lines), costs.ct_gather_repeat_latency
                    )
                assert got == want
        _assert_observably_equal(ma, mb, ra, rb, base, "ct-sweep")


class TestSweepWrappers:
    def test_sweep_load_lines_uses_ds_decomposition(self):
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(8 * 1024, "b")
        ds = DataflowLinearizationSet.from_range(base, 8 * 1024, name="b")
        ref = Machine(MachineConfig())
        ref.allocator.alloc(8 * 1024, "b")
        m.sweep_load_lines(ds)
        for line in ds.lines:
            ref.load_word(line)
        assert m.snapshot() == ref.snapshot()

    def test_sweep_store_lines_applies_target_only(self):
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(4 * 1024, "b")
        for i in range(64):
            m.memory.write_word(base + 64 * i + 8, i)
        ds = DataflowLinearizationSet.from_range(base, 4 * 1024, name="b")
        old = m.sweep_store_lines(
            ds, offset=8, target_idx=5, target_fn=lambda v: 777
        )
        assert old[5] == 5
        for i in range(64):
            expect = 777 if i == 5 else i
            assert m.memory.read_word(base + 64 * i + 8) == expect
            assert m.memory.read_word(base + 64 * i) == 0

    def test_offset_must_stay_intra_line(self):
        # documented contract: offset < line size keeps words on DS lines
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(1024, "b")
        ds = DataflowLinearizationSet.from_range(base, 1024, name="b")
        m.sweep_store_lines(ds, offset=60, target_idx=3,
                            target_fn=lambda v: v + 9)
        assert m.memory.read_word(ds.lines[3] + 60) == 9

    @pytest.mark.parametrize("offset, error", [
        (64, ProtocolError), (-4, ProtocolError), (3, AlignmentError),
    ])
    def test_offset_off_the_line_raises_before_any_access(
        self, offset, error
    ):
        """An offset that leaves the DS line, or splits a word, is
        refused before anything is charged: counters, cache contents
        and memory stay as they were."""
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(4096, "b")
        for i in range(64):
            m.memory.write_word(base + 64 * i, i)
        ds = DataflowLinearizationSet.from_range(base, 4096, name="b")
        m.sweep_load_lines(ds)  # resident lines: the contents must hold

        def state():
            levels = [
                (c.occupied_sets(), _replacement_state(c),
                 dict(c.stats.set_accesses))
                for c in m.hierarchy.levels
            ]
            words = [m.memory.read_word(a) for a in range(base, base + 4096 + 64, 4)]
            return m.snapshot(), levels, words

        before = state()
        with pytest.raises(error, match="sweep offset"):
            m.sweep_store_lines(ds, offset=offset, target_idx=0,
                                target_fn=lambda v: v + 100)
        assert state() == before


#: Machines for the fork test: every policy with its seed, PLcache,
#: prefetcher and inclusive-LLC extras, and caches small enough that
#: the arena evicts at every level (an L1d of 8 sets x 2 ways, 1 x 8 or
#: 1 x 1, an L2 of 16 and an LLC of 32 sets x 4 ways) under a 2-set,
#: 2-way BIA, each of whose sets four of the arena's eight pages share.
fork_configs = st.builds(
    lambda config, l1d: dataclasses.replace(
        config, l1d_size=l1d[0], l1d_assoc=l1d[1], l2_size=4096,
        l2_assoc=4, llc_size=8192, llc_assoc=4, bia_entries=4,
        bia_assoc=2,
    ),
    extra_configs,
    st.sampled_from([(1024, 2), (512, 8), (64, 1)]),
)

#: Machine traffic for the fork test: scalar and batched loads and
#: stores, RMW batches, attacker flushes and evictions (which leave
#: empty ways behind them), and CTLoad/CTStore, which allocate and
#: evict BIA entries.  ``(kind, line, word, length, stride, level)``:
#: a batch takes ``length`` words ``stride`` words apart (same-line
#: runs, consecutive lines, or lines 17 words apart).
fork_ops = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "load_words", "store_words",
                         "rmw_words", "flush", "evict", "ctload",
                         "ctstore"]),
        st.one_of(
            st.sampled_from([0, 128, 256, 384]),
            st.integers(min_value=0, max_value=ARENA_LINES - 1),
        ),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([1, 16, 17]),
        st.sampled_from(["L1D", "L2", "LLC"]),
    ),
    min_size=1,
    max_size=30,
)


def _fork_state(m, base):
    """What a fork test compares at the split: the snapshot, every
    set's full state, the BIA's state and the arena's memory."""
    return (
        m.snapshot(),
        [_replacement_state(cache) for cache in m.hierarchy.levels],
        _bia_state(m),
        m.memory.read(base, 64 * ARENA_LINES),
    )


def _fork_op(m, base, op):
    """Apply one ``fork_ops`` op to ``m``; returns what it returned."""
    kind, line, word, length, stride, level = op
    addr = base + 64 * line + 4 * word
    words = [
        base + (64 * line + 4 * (word + stride * j)) % (64 * ARENA_LINES)
        for j in range(length)
    ]
    if kind == "load":
        return m.load_word(addr)
    if kind == "store":
        return m.store_word(addr, line * length + word)
    if kind == "load_words":
        return m.load_words(words)
    if kind == "store_words":
        return m.store_words(words, [line + j for j in range(length)])
    if kind == "rmw_words":
        return m.rmw_words(words, update_fn=lambda i, v: v + i + 1)
    if kind == "flush":
        return m.attacker_flush(addr)
    if kind == "evict":
        result = m.attacker_evict(level, addr)
        return bool(result), result.latency
    if kind == "ctload":
        return m.ctload(addr)
    return m.ctstore(addr, line)


class TestForkContinuation:
    """A ``fork()`` and a ``save_state`` restored onto two fresh
    machines, taken midway, continue exactly as the original: after
    the same remaining ops all four agree in every return value,
    the snapshot, per-level stats and set profiles, ``occupied_sets()``,
    every set's ways, key index and ranking state (RNG state included),
    PLcache lock state and the BIA table.  The original runs its
    remaining ops first, and the three copies must come out of that
    untouched, so a line, a BIA entry or a piece of ranking state that a
    copy still shared with the original (or with the snapshot another
    copy was restored from) shows."""

    # ``warm``: the first lines of the arena loaded, and a CTLoad on
    # each of their pages, before the ops; with the whole arena every
    # set is full, so each fill evicts, and so is the BIA
    @given(config=fork_configs, ops=fork_ops, split=st.floats(0, 1),
           warm=st.sampled_from([0, 96, ARENA_LINES]))
    @settings(max_examples=60, deadline=None)
    def test_fork_and_restore_continue_exactly(self, config, ops, split,
                                               warm):
        split = round(split * len(ops))
        (m, _), _, base = _twins(config, False)
        m.load_words([base + 64 * i for i in range(warm)])
        for page in range(0, 64 * warm, 4096):
            m.ctload(base + page)
        for op in ops[:split]:
            _fork_op(m, base, op)
        forked = m.fork()
        saved = m.save_state()
        copies = (forked, Machine(config), Machine(config))
        for other in copies[1:]:
            other.restore_state(saved)
        at_split = [_fork_state(mm, base) for mm in copies]
        results = [_fork_op(m, base, op) for op in ops[split:]]
        assert [_fork_state(mm, base) for mm in copies] == at_split
        for other, where in zip(copies, ("fork", "restore", "restore 2")):
            got = [_fork_op(other, base, op) for op in ops[split:]]
            assert got == results, where
            _assert_observably_equal(m, other, None, None, base, where)
            for ca, cb in zip(m.hierarchy.levels, other.hierarchy.levels):
                assert ca.stats.invalidations == cb.stats.invalidations
                assert sorted(ca._live) == sorted(cb._live), (where, ca.name)
                assert ca._capture_extra() == cb._capture_extra(), where


class TestWarmPool:
    """The experiment engine's pooled machines == fresh machines."""

    SPECS = [
        ("histogram", 200, "insecure"),
        ("histogram", 200, "ct"),
        ("binary_search", 128, "bia-l1d"),
        ("histogram", 200, "bia-llc"),
    ]

    def test_pooled_runs_counter_identical_to_fresh(self):
        from repro.experiments.parallel import (
            RunSpec,
            use_warm_pool,
            warm_pool,
        )

        specs = [
            RunSpec(w, size, scheme, seed)
            for w, size, scheme in self.SPECS
            for seed in (1, 2)
        ]
        try:
            use_warm_pool(False)
            fresh = [s.run() for s in specs]
            pool = use_warm_pool(True)
            # run twice: second pass exercises restore-and-reuse
            pooled = [s.run() for s in specs] + [s.run() for s in specs]
        finally:
            use_warm_pool(True)
        for f, p in zip(fresh + fresh, pooled):
            assert f.counters == p.counters
            assert f.output == p.output
            assert f.label == p.label
        assert pool.stats.builds == len(self.SPECS)
        assert pool.stats.reuses == 2 * len(specs) - len(self.SPECS)
        assert warm_pool() is not None  # default engine keeps a pool


@pytest.mark.parametrize("scheme", ["plain", "plcache"])
def test_rmw_words_miss_resume_across_fill_refusal(scheme):
    """The kernel's miss-resume path stays exact when fills are refused."""
    config = MachineConfig(plcache=(scheme == "plcache"))
    ma, mb = Machine(config), Machine(config)
    base = None
    for m in (ma, mb):
        base = m.allocator.alloc(16 * 1024, "b")
    if scheme == "plcache":
        # lock whole sets so some DS fills are refused
        for m in (ma, mb):
            for i in range(64):
                m.load_word(base + 64 * i)
                m.l1d.lock(base + 64 * i)
    addrs = [base + 64 * (i % 256) for i in range(300)]
    got = ma.rmw_words(addrs, target_idx=7, target_fn=lambda v: v + 1)
    want = []
    for i, a in enumerate(addrs):
        v = mb.load_word(a)
        want.append(v)
        mb.store_word(a, v + 1 if i == 7 else v)
    _assert_target_value(got, want, 7)
    assert ma.snapshot() == mb.snapshot()
