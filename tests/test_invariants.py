"""System-level property tests: the invariants DESIGN.md Sec. 5 lists.

These drive the *whole machine* (not individual components) with
hypothesis-generated operation sequences and check:

1. BIA subset-consistency under arbitrary victim + attacker traffic;
2. functional memory consistency (read-your-writes) through every
   access path the machine offers;
3. trace equivalence of generated secret-parameterized access programs
   under both mitigation schemes;
4. the CT-op no-state-change guarantee under arbitrary preceding
   traffic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize
from repro.attacks.observer import ObservableTraceRecorder
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.linearize import SoftwareCTContext

SMALL_CONFIG = dict(
    l1d_size=4 * 1024,
    l1d_assoc=2,
    l2_size=16 * 1024,
    l2_assoc=4,
    llc_size=64 * 1024,
    llc_assoc=8,
    bia_entries=16,
    bia_assoc=4,
)

BASE = 0x10000
N_WORDS = 256  # 1 KiB, 16 lines — small so evictions happen

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "load",
                "store",
                "ctload",
                "ctstore",
                "attacker_load",
                "attacker_evict",
                "attacker_flush",
            ]
        ),
        st.integers(min_value=0, max_value=N_WORDS - 1),
        st.integers(min_value=0, max_value=0xFFFF),
    ),
    max_size=60,
)


def drive(machine: Machine, ops) -> dict:
    """Apply an op sequence; returns the reference memory image."""
    reference = {}
    for i in range(N_WORDS):
        machine.memory.write_word(BASE + 4 * i, i)
        reference[i] = i
    for op, idx, value in ops:
        addr = BASE + 4 * idx
        if op == "load":
            assert machine.load_word(addr) == reference[idx]
        elif op == "store":
            machine.store_word(addr, value)
            reference[idx] = value
        elif op == "ctload":
            data, _ = machine.ctload(addr)
            assert data in (0, reference[idx])
        elif op == "ctstore":
            machine.ctstore(addr, value)
            # commits only when already dirty; either way memory holds
            # the reference value or the new one written "in cache"
            if machine.memory.read_word(addr) == value % (1 << 32):
                reference[idx] = value
        elif op == "attacker_load":
            machine.attacker_load(addr)
        elif op == "attacker_evict":
            machine.attacker_evict("L1D", addr)
        elif op == "attacker_flush":
            machine.attacker_flush(addr)
    return reference


class TestMachineFuzz:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_bia_subset_invariant(self, ops):
        machine = Machine(MachineConfig(**SMALL_CONFIG))
        drive(machine, ops)
        assert machine.bia.check_subset_of(machine.l1d)

    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_memory_consistency(self, ops):
        machine = Machine(MachineConfig(**SMALL_CONFIG))
        reference = drive(machine, ops)
        for idx, expected in reference.items():
            assert machine.load_word(BASE + 4 * idx) == expected % (1 << 32)

    @given(OPS)
    @settings(max_examples=40, deadline=None)
    def test_l2_bia_subset_invariant(self, ops):
        machine = Machine(MachineConfig(bia_level="L2", **SMALL_CONFIG))
        drive(machine, ops)
        assert machine.bia.check_subset_of(machine.l2)


class TestCTOpInvisibilityFuzz:
    @given(
        OPS,
        st.integers(min_value=0, max_value=N_WORDS - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ct_ops_change_nothing_after_any_traffic(self, ops, idx):
        machine = Machine(MachineConfig(**SMALL_CONFIG))
        drive(machine, ops)
        recorder = ObservableTraceRecorder()
        for level in machine.hierarchy.levels:
            recorder.attach(level)
        before = recorder.final_state_digest()
        machine.ctload(BASE + 4 * idx)
        machine.ctstore(BASE + 4 * idx, 0xDEAD)
        assert recorder.events == []
        assert recorder.final_state_digest() == before


# A tiny generated "program": a list of (kind, coefficient) pairs; the
# accessed index is (coefficient * secret + position) % N, so every
# access is secret-dependent in a different way.
PROGRAM = st.lists(
    st.tuples(st.sampled_from(["load", "store", "rmw"]),
              st.integers(min_value=1, max_value=97)),
    min_size=1,
    max_size=12,
)


class TestGeneratedProgramEquivalence:
    @staticmethod
    def _sanitize(make_ctx, program):
        def run_fn(ctx, secret):
            machine = ctx.machine
            base = machine.allocator.alloc_words(N_WORDS)
            for i in range(N_WORDS):
                machine.memory.write_word(base + 4 * i, i)
            ds = ctx.register_ds(base, 4 * N_WORDS, "arr")
            for position, (kind, coeff) in enumerate(program):
                idx = (coeff * secret + position) % N_WORDS
                addr = base + 4 * idx
                if kind == "load":
                    ctx.load(ds, addr)
                elif kind == "store":
                    ctx.store(ds, addr, secret * 7 + position)
                else:
                    ctx.rmw(ds, addr, lambda v: v + 1)

        return sanitize(
            lambda: make_ctx(Machine(MachineConfig(**SMALL_CONFIG))),
            run_fn,
            secrets=(1, 5, 11),
        )

    @given(PROGRAM)
    @settings(max_examples=25, deadline=None)
    def test_bia_trace_equivalence(self, program):
        report = self._sanitize(BIAContext, program)
        assert report.clean, report.describe()

    @given(PROGRAM)
    @settings(max_examples=15, deadline=None)
    def test_ct_trace_equivalence(self, program):
        report = self._sanitize(SoftwareCTContext, program)
        assert report.clean, report.describe()
