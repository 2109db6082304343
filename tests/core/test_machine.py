"""Machine integration: counters, actors, configuration."""

import dataclasses

import pytest

from repro import params
from repro.cache.events import CacheListener
from repro.core.costs import CostModel
from repro.core.machine import Machine, MachineConfig, build_machine
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ConfigurationError

LINE = params.LINE_SIZE
WORD = params.WORD_SIZE


class TestCounters:
    def test_execute(self, machine):
        machine.execute(10)
        assert machine.stats.insts == 10
        assert machine.stats.l1i_refs == 10
        assert machine.stats.cycles == 10.0

    def test_execute_rejects_negative(self, machine):
        with pytest.raises(ConfigurationError):
            machine.execute(-1)

    def test_load_counts(self, machine):
        machine.load_word(0x10000)
        assert machine.stats.loads == 1
        assert machine.stats.l1d_refs == 1
        assert machine.stats.insts == 1
        # cold miss: L1 + L2 + LLC + DRAM latencies (the memory
        # instruction's own cycle is part of the access latency)
        assert machine.stats.cycles == 2 + 15 + 41 + 200

    def test_warm_load_latency(self, machine):
        machine.load_word(0x10000)
        before = machine.stats.cycles
        machine.load_word(0x10000)
        assert machine.stats.cycles - before == 2

    def test_store_roundtrip(self, machine):
        machine.store_word(0x10000, 77)
        assert machine.load_word(0x10000) == 77
        assert machine.stats.stores == 1

    def test_ct_ops_counted(self, machine):
        machine.ctload(0x10000)
        machine.ctstore(0x10000, 0)
        assert machine.stats.ct_loads == 1
        assert machine.stats.ct_stores == 1
        assert machine.stats.l1d_refs == 2

    def test_charge_memory(self, machine):
        machine.charge_memory(100, 1.0)
        assert machine.stats.l1d_refs == 100
        assert machine.stats.cycles == 100 * 1.0

    def test_uncached_ops(self, machine):
        machine.store_word_uncached(0x10000, 9)
        assert machine.load_word_uncached(0x10000) == 9
        assert machine.hierarchy.where(0x10000) == []
        assert machine.dram.stats.accesses == 2

    def test_reset_stats_preserves_cache_contents(self, machine):
        machine.load_word(0x10000)
        machine.reset_stats()
        assert machine.stats.cycles == 0
        assert 0x10000 in machine.l1d


#: Machine word stores of ``v`` at ``a``.  CTStore commits only to a
#: line that is resident and dirty at the BIA's level, so its row
#: dirties the line first.
_WORD_STORES = {
    "store_word": lambda m, a, v: m.store_word(a, v),
    "store_words": lambda m, a, v: m.store_words([a], [v]),
    "rmw_words": lambda m, a, v: m.rmw_words([a], update_fn=lambda i, old: v),
    "store_word_uncached": lambda m, a, v: m.store_word_uncached(a, v),
    "ctstore": lambda m, a, v: (m.store_word(a, 0), m.ctstore(a, v)),
}

#: Machine word loads at ``a``; CTLoad reads only a resident line.
_WORD_LOADS = {
    "load_word": lambda m, a: m.load_word(a),
    "load_words": lambda m, a: m.load_words([a])[0],
    "load_word_uncached": lambda m, a: m.load_word_uncached(a),
    "ctload": lambda m, a: (m.load_word(a), m.ctload(a)[0])[1],
}


class TestWordSize:
    """Every machine word op moves one ``params.WORD_SIZE`` word."""

    WIDE = (0xDEAD << (8 * WORD)) | 0x12345678  # wider than a word

    @staticmethod
    def _line_of_words(m, fill):
        base = m.allocator.alloc(LINE, "w")
        for k in range(LINE // WORD):
            m.memory.write_word(base + k * WORD, fill(k))
        return base

    @pytest.mark.parametrize("op", sorted(_WORD_STORES))
    def test_store_writes_one_word(self, machine, op):
        """A stored value is kept modulo ``2**(8 * WORD_SIZE)`` and the
        neighbouring words of the line keep their contents."""
        base = self._line_of_words(machine, lambda k: 0x01010101 * (k + 1))
        addr = base + 2 * WORD
        _WORD_STORES[op](machine, addr, self.WIDE)
        assert machine.memory.read_word(addr) == 0x12345678
        for k in range(LINE // WORD):
            if k != 2:
                assert machine.memory.read_word(base + k * WORD) == (
                    0x01010101 * (k + 1)
                )

    @pytest.mark.parametrize("op", sorted(_WORD_LOADS))
    def test_load_reads_one_word(self, machine, op):
        """A load returns its own word, whatever its neighbours hold."""
        base = self._line_of_words(machine, lambda k: 0xFFFFFFFF)
        addr = base + 2 * WORD
        machine.memory.write_word(addr, 0x12345678)
        assert _WORD_LOADS[op](machine, addr) == 0x12345678

    @pytest.mark.parametrize("op", ["store_word", "store_words", "rmw_words"])
    def test_silent_store_compares_one_word(self, op):
        """A silent-store machine squashes a store equal to the word
        modulo ``2**(8 * WORD_SIZE)``: the resident line stays clean.
        Any other word value is stored and dirties it."""
        m = Machine(MachineConfig(silent_stores=True))
        addr = m.allocator.alloc(LINE, "s")
        m.memory.write_word(addr, 0x12345678)
        m.load_word(addr)  # resident and clean
        _WORD_STORES[op](m, addr, self.WIDE)
        assert not m.l1d.is_dirty(addr)
        assert m.memory.read_word(addr) == 0x12345678
        _WORD_STORES[op](m, addr, 0x12345679)
        assert m.l1d.is_dirty(addr)
        assert m.memory.read_word(addr) == 0x12345679


class TestSnapshot:
    def test_snapshot_keys(self, machine):
        machine.load_word(0x10000)
        snap = machine.snapshot()
        for key in (
            "insts",
            "l1i_refs",
            "l1d_refs",
            "cycles",
            "l1d_hits",
            "l1d_misses",
            "l2_hits",
            "llc_misses",
            "dram_accesses",
            "llc_miss_total",
            "bia_lookups",
        ):
            assert key in snap

    def test_snapshot_counts_dram(self, machine):
        machine.load_word(0x10000)
        assert machine.snapshot()["dram_accesses"] == 1


class TestAttackerActor:
    def test_attacker_not_in_victim_stats(self, machine):
        machine.attacker_load(0x10000)
        assert machine.stats.l1d_refs == 0
        assert machine.stats.cycles == 0

    def test_attacker_latency_reveals_misses(self, machine):
        cold = machine.attacker_load(0x10000)
        warm = machine.attacker_load(0x10000)
        assert cold > warm == machine.l1d.latency

    def test_attacker_flush(self, machine):
        machine.load_word(0x10000)
        machine.attacker_flush(0x10000)
        assert machine.hierarchy.where(0x10000) == []

    def test_attacker_evict_single_level(self, machine):
        machine.load_word(0x10000)
        machine.attacker_evict("L1D", 0x10000)
        assert machine.hierarchy.where(0x10000) == ["L2", "LLC"]

    @pytest.mark.parametrize("served_by, latency", [
        ("L1D", 2), ("L2", 2 + 15), (None, 2 + 15 + 41 + 200),
    ])
    def test_attacker_probe_is_in_no_profile(self, machine, served_by,
                                             latency):
        """Attacker probes are unobserved: whichever level serves one,
        no level's per-set profile (what Fig. 10 plots) moves, yet the
        probe costs and fills what a victim load would."""
        if served_by is not None:
            machine.load_word(0x10000)
        if served_by == "L2":
            machine.attacker_evict("L1D", 0x10000)
        levels = machine.hierarchy.levels
        before = [dict(c.stats.set_accesses) for c in levels]
        assert machine.attacker_load(0x10000) == latency
        assert [dict(c.stats.set_accesses) for c in levels] == before
        assert machine.hierarchy.where(0x10000) == ["L1D", "L2", "LLC"]


class _HitLog(CacheListener):
    def __init__(self):
        self.hits = []

    def on_hit(self, cache_name, line_addr, dirty):
        self.hits.append(line_addr)


#: Every machine path that can hit line ``a`` at the L1d.  ``ds`` is
#: the one-line DS of ``a``; ``/silent`` runs on a silent-store machine
#: and rewrites the word's own value.
_L1D_HIT_PATHS = {
    "load_word": lambda m, a, ds: m.load_word(a),
    "store_word": lambda m, a, ds: m.store_word(a, 5),
    "store_word/silent": lambda m, a, ds: m.store_word(a, m.memory.read_word(a)),
    "load_words": lambda m, a, ds: m.load_words([a, a + WORD]),
    "store_words": lambda m, a, ds: m.store_words([a, a + WORD], [5, 6]),
    "rmw_words": lambda m, a, ds: m.rmw_words(
        [a, a + WORD], 1, lambda v: v + 1
    ),
    "rmw_words/update_fn": lambda m, a, ds: m.rmw_words(
        [a], update_fn=lambda i, v: v + 1
    ),
    "sweep_load_lines": lambda m, a, ds: m.sweep_load_lines(ds),
    "sweep_store_lines": lambda m, a, ds: m.sweep_store_lines(
        ds, 0, 0, lambda v: v + 1
    ),
    "attacker_load": lambda m, a, ds: m.attacker_load(a),
}


@pytest.mark.parametrize("listeners", [False, True])
@pytest.mark.parametrize("path", sorted(_L1D_HIT_PATHS))
def test_every_hit_updates_l1d_replacement_state(tiny_machine, path,
                                                 listeners):
    """No demand access is replacement-suppressed: every path that hits
    a line moves it in the L1d's LRU order, listeners or not, so the
    line that was least recently used survives the next conflict fill.
    (The Sec. 3.2 rule is CTLoad/CTStore's: their probes are pure
    lookups, see tests/core/test_instructions.py.)"""
    m = tiny_machine
    if path.endswith("/silent"):
        m = Machine(dataclasses.replace(m.config, silent_stores=True))
    stride = m.l1d.num_sets * LINE  # one 2-way L1d set
    a = m.allocator.alloc(3 * stride, "a")
    b, c = a + stride, a + 2 * stride
    m.load_word(a)
    m.load_word(b)  # a is now the LRU line of its set
    log = _HitLog()
    if listeners:
        m.l1d.events.subscribe(log)
    hits = m.l1d.stats.hits
    _L1D_HIT_PATHS[path](m, a, DataflowLinearizationSet.from_range(a, LINE))
    assert m.l1d.stats.misses == 2 and m.l1d.stats.hits > hits
    if listeners:
        assert log.hits == [a] * (m.l1d.stats.hits - hits)
    m.load_word(c)
    assert a in m.l1d and b not in m.l1d


#: The ops that take ``start_level``: (run, L1d-level accesses, writes).
_START_LEVEL_OPS = {
    "load_word": (lambda m, a, k: m.load_word(a, start_level=k), 1, False),
    "store_word": (
        lambda m, a, k: m.store_word(a, 7, start_level=k), 1, True,
    ),
    "load_words": (lambda m, a, k: m.load_words([a], start_level=k), 1, False),
    "rmw_words": (
        lambda m, a, k: m.rmw_words([a], 0, lambda v: v + 1, start_level=k),
        2, True,
    ),
}


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("op", sorted(_START_LEVEL_OPS))
def test_start_level_bypasses_the_levels_above(machine, op, level):
    """``start_level`` (the BIA fetch pass, Sec. 4.2, and its sliced-LLC
    fallback) begins an access at that level: a cold line is filled
    there and below but not above, a write dirties it there only, and
    the cost is the walk from that level to DRAM (an RMW's store then
    hits at the start level)."""
    run, accesses, writes = _START_LEVEL_OPS[op]
    levels = machine.hierarchy.levels
    names = [c.name for c in levels]
    addr = machine.allocator.alloc(LINE, "x")
    run(machine, addr, level)
    assert machine.hierarchy.where(addr) == names[level:]
    dirty = [c.name for c in levels if c.is_dirty(addr)]
    assert dirty == (names[level:level + 1] if writes else [])
    walk = sum(c.latency for c in levels[level:]) + machine.dram.latency
    assert machine.stats.cycles == walk + (accesses - 1) * levels[level].latency


class TestConfig:
    def test_table1_defaults(self):
        config = MachineConfig()
        desc = config.describe()
        assert "64 KB" in desc["L1d cache"]
        assert "1 MB" in desc["L2 cache"]
        assert "16 MB" in desc["Last Level cache"]
        assert "1 KB" in desc["BIA"]
        assert "L1D" in desc["BIA"]

    @pytest.mark.parametrize("policy", ["closed", "open"])
    def test_describe_prints_dram_policy(self, policy):
        desc = MachineConfig(dram_policy=policy).describe()
        assert desc["DRAM"] == f"200 cycles latency, {policy}-row policy"

    def test_build_machine_levels(self):
        assert build_machine("L1D").bia.monitored_cache == "L1D"
        assert build_machine("L2").bia.monitored_cache == "L2"

    def test_custom_costs(self):
        machine = build_machine(costs=CostModel(cpi=2.0))
        machine.execute(5)
        assert machine.stats.cycles == 10.0

    def test_bad_bia_level(self):
        with pytest.raises(ConfigurationError):
            build_machine("L4")

    def test_replacement_policy_override(self):
        machine = Machine(MachineConfig(replacement="fifo"))
        assert machine.l1d.replacement == "fifo"

    def test_prefetcher_wiring(self):
        machine = Machine(MachineConfig(prefetcher=True))
        assert machine.hierarchy.prefetcher is not None
        machine = Machine(MachineConfig())
        assert machine.hierarchy.prefetcher is None


class TestCostModelValidation:
    def test_rejects_bad_cpi(self):
        with pytest.raises(ConfigurationError):
            CostModel(cpi=0)

    def test_rejects_negative_insts(self):
        with pytest.raises(ConfigurationError):
            CostModel(bia_call_insts=-1)

    def test_defaults_valid(self):
        CostModel()  # must not raise

    def test_whole_number_costs_accepted(self):
        Machine(MachineConfig(costs=CostModel(cpi=3)))
        CostModel(cpi=2.0, ct_gather_repeat_latency=0)
        MachineConfig(l2_latency=15.0, llc_slices=8, ls_hash=6)


#: Configurations that must fail at construction, each naming the
#: offending field: fractional or non-positive cycle costs, a slice
#: count that is not a power of two >= 1, and a slice hash starting
#: inside the line offset or above bit 63 of a physical address.
BAD_CONFIGS = {
    "cpi=0.5": ("cpi", lambda: CostModel(cpi=0.5)),
    "cpi=nan": ("cpi", lambda: CostModel(cpi=float("nan"))),
    "gather-repeat=-3": (
        "ct_gather_repeat_latency",
        lambda: CostModel(ct_gather_repeat_latency=-3),
    ),
    "gather-repeat=0.5": (
        "ct_gather_repeat_latency",
        lambda: CostModel(ct_gather_repeat_latency=0.5),
    ),
    "l1d_latency=1.5": ("l1d_latency", lambda: MachineConfig(l1d_latency=1.5)),
    "l2_latency=0": ("l2_latency", lambda: MachineConfig(l2_latency=0)),
    "llc_latency=-41": ("llc_latency", lambda: MachineConfig(llc_latency=-41)),
    "dram_latency=0.5": (
        "dram_latency", lambda: MachineConfig(dram_latency=0.5)
    ),
    "bia_latency=0": ("bia_latency", lambda: MachineConfig(bia_latency=0)),
    "llc_slices=0": ("llc_slices", lambda: MachineConfig(llc_slices=0)),
    "llc_slices=3": ("llc_slices", lambda: MachineConfig(llc_slices=3)),
    "ls_hash=99": ("ls_hash", lambda: MachineConfig(ls_hash=99)),
    "ls_hash=64": ("ls_hash", lambda: MachineConfig(ls_hash=64)),
    "ls_hash=5": ("ls_hash", lambda: MachineConfig(ls_hash=5)),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_rejected_at_construction(case):
    field_name, build = BAD_CONFIGS[case]
    with pytest.raises(ConfigurationError, match=field_name):
        build()


#: CostModel's instruction counts: every field but the two cycle costs.
INST_FIELDS = [
    f.name
    for f in dataclasses.fields(CostModel)
    if f.name not in ("cpi", "ct_gather_repeat_latency")
]


@pytest.mark.parametrize("value", [0.5, -1, float("nan")])
@pytest.mark.parametrize("name", INST_FIELDS)
def test_instruction_counts_must_be_whole(name, value):
    """A fractional count would add fractional instructions and cycles."""
    assert len(INST_FIELDS) == 11
    with pytest.raises(ConfigurationError, match=name):
        CostModel(**{name: value})
    CostModel(**{name: 2.0})  # an integral float is a whole number


def _bad_counts(m, base):
    """Every entry point taking a runtime count, called with a count the
    scalar path rejects (negative) or that would charge a fraction of an
    instruction, access or cycle."""
    addrs = [base, base + 4, base + 64]
    ds = DataflowLinearizationSet.from_range(base, 1024, name="b")
    return {
        "execute(-3)": lambda: m.execute(-3),
        "execute(2.5)": lambda: m.execute(2.5),
        "load_words(pre=-3)": lambda: m.load_words(addrs, pre_insts=-3),
        "load_words(pre=0.5)": lambda: m.load_words(addrs, pre_insts=0.5),
        "store_words(pre=-3)": lambda: m.store_words(
            addrs, [1, 2, 3], pre_insts=-3),
        "store_words(pre=1.5)": lambda: m.store_words(
            addrs, [1, 2, 3], pre_insts=1.5),
        "rmw_words(pre=-3)": lambda: m.rmw_words(
            addrs, 0, lambda v: v + 1, pre_insts=-3),
        "rmw_words(pre=0.5)": lambda: m.rmw_words(
            addrs, update_fn=lambda i, v: v, pre_insts=0.5),
        "sweep_load_lines(pre=-1)": lambda: m.sweep_load_lines(
            ds, pre_insts=-1),
        "sweep_store_lines(pre=0.5)": lambda: m.sweep_store_lines(
            ds, target_idx=0, target_fn=lambda v: v, pre_insts=0.5),
        "ctload_words(pre=-2)": lambda: m.ctload_words(addrs, -2),
        "ctload_words(pre=0.5)": lambda: m.ctload_words(addrs, 0.5),
        "charge_memory(3, 0.5)": lambda: m.charge_memory(3, 0.5),
        "charge_memory(2, -7)": lambda: m.charge_memory(2, -7),
        "charge_memory(-1, 1)": lambda: m.charge_memory(-1, 1),
        "charge_memory(1.5, 1)": lambda: m.charge_memory(1.5, 1),
    }


_COUNT_CASES = list(_bad_counts(Machine(), 0x10000))


@pytest.mark.parametrize("path", ["bulk", "silent-stores", "sliced-llc"])
@pytest.mark.parametrize("case", _COUNT_CASES)
def test_bad_runtime_count_rejected_before_any_charge(case, path):
    config = {
        "bulk": MachineConfig(),
        "silent-stores": MachineConfig(silent_stores=True),
        "sliced-llc": MachineConfig(bia_level="LLC", llc_slices=8),
    }[path]
    m = Machine(config)
    base = m.allocator.alloc(4096, "b")
    before = m.snapshot()
    with pytest.raises(ConfigurationError):
        _bad_counts(m, base)[case]()
    assert m.snapshot() == before
    assert m.l1d.resident_lines() == []
    assert not list(m.memory.touched_pages())


def test_whole_runtime_counts_accepted():
    m = Machine()
    m.execute(2.0)
    m.charge_memory(3, 0)
    m.load_words([0x10000], pre_insts=2.0)
    assert m.stats.insts == 2 + 3 + 3


class TestDRAMPolicy:
    def test_default_closed(self):
        machine = Machine(MachineConfig())
        assert machine.dram.policy == "closed"

    def test_open_policy_wiring(self):
        machine = Machine(MachineConfig(dram_policy="open"))
        machine.load_word(0x10000)  # cold miss opens the row
        assert machine.dram.stats.row_conflicts == 1

    def test_open_policy_row_hit_is_cheaper(self):
        """Two uncached accesses to the same row: the second is a row
        hit under the open policy, full latency under the closed one.

        (Measured as a cycle delta rather than via ``reset_stats``,
        which now deliberately precharges the row buffers between
        measurement phases.)
        """
        closed = Machine(MachineConfig())
        opened = Machine(MachineConfig(dram_policy="open"))
        deltas = {}
        for m in (closed, opened):
            m.load_word_uncached(0x10000)
            warm = m.stats.cycles
            m.load_word_uncached(0x10040)  # same row
            deltas[m] = m.stats.cycles - warm
        assert deltas[closed] == closed.dram.latency
        assert deltas[opened] == opened.dram.row_hit_latency

    def test_reset_stats_precharges_open_rows(self):
        """reset_stats forgets open-row state: the first measured
        access after a reset pays the full (conflict) latency even if
        warm-up left its row open."""
        m = Machine(MachineConfig(dram_policy="open"))
        m.load_word_uncached(0x10000)  # warm-up opens the row
        assert m.dram.open_row(m.dram.bank_of(0x10000)) is not None
        m.reset_stats()
        assert m.dram.open_row(m.dram.bank_of(0x10000)) is None
        m.load_word_uncached(0x10040)  # same row, but freshly precharged
        assert m.stats.cycles == m.dram.latency
        assert m.dram.stats.row_conflicts == 1

    @pytest.mark.parametrize("policy", ["closed", "open"])
    @pytest.mark.parametrize("latency", [1, 50, 99, 100, 200])
    def test_any_positive_dram_latency_builds(self, policy, latency):
        """The row-hit latency is derived from ``dram_latency``, so a
        latency below the old fixed row-hit cost of 100 still builds.
        A closed-row access costs exactly ``dram_latency``; an open-row
        hit costs at most that."""
        m = Machine(MachineConfig(dram_latency=latency, dram_policy=policy))
        m.load_word_uncached(0x10000)
        assert m.stats.cycles == latency  # cold: a conflict when open
        m.load_word_uncached(0x10040)  # same row
        second = m.stats.cycles - latency
        if policy == "closed":
            assert second == latency
        else:
            assert second == m.dram.row_hit_latency
            assert 0 < second <= latency


class TestAttackerLatencySignals:
    """The attacker API returns the latencies its primitives cost.

    Regression: `attacker_flush` used to drop the dirty-write-back
    latency `flush_line` returns, and `attacker_evict` collapsed its
    eviction to a bare bool — so Flush+Reload / Evict+Time models
    could never observe write-back cost.
    """

    def test_flush_of_dirty_line_returns_writeback_latency(self, machine):
        machine.store_word(0x10000, 7)  # dirty in the L1d
        latency = machine.attacker_flush(0x10000)
        assert latency == machine.dram.latency
        assert machine.hierarchy.where(0x10000) == []

    def test_flush_of_clean_or_absent_line_is_free(self, machine):
        machine.load_word(0x10000)
        assert machine.attacker_flush(0x10000) == 0
        assert machine.attacker_flush(0x20000) == 0  # never cached

    def test_flush_latency_distinguishes_dirty_from_clean(self, machine):
        """The Flush+Flush signal: flush timing alone separates a line
        the victim wrote from one it only read."""
        machine.load_word(0x10000)   # victim read
        machine.store_word(0x20000, 1)  # victim write
        read_line = machine.attacker_flush(0x10000)
        written_line = machine.attacker_flush(0x20000)
        assert written_line > read_line == 0

    def test_evict_returns_result_with_latency(self, machine):
        machine.store_word(0x10000, 7)
        # drop the clean lower-level copies so the dirty L1d line has
        # nowhere to land but DRAM
        machine.l2.invalidate(0x10000)
        machine.llc.invalidate(0x10000)
        result = machine.attacker_evict("L1D", 0x10000)
        assert result  # evicted: truthy, as before
        assert result.latency == machine.dram.latency
        absent = machine.attacker_evict("L1D", 0x10000)
        assert not absent and absent.latency == 0
