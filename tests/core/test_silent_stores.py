"""Silent stores (Sec. 2.4): the deferred hardware/software-contract gap.

The paper: "the main concern about secret-dependent memory access is
silent stores ... we leave the silent store issue to a future study."
This module makes the concern concrete: with silent-store squashing
enabled, the dirty bit becomes a function of the *value* written, so a
software-CT store sweep (which rewrites every DS line with its own
value) no longer leaves a secret-independent dirty footprint.
"""

from repro.analysis.sanitizer import sanitize
from repro.core.machine import Machine, MachineConfig
from repro.ct.linearize import SoftwareCTContext


def silent_machine():
    return Machine(MachineConfig(silent_stores=True))


class TestSquashing:
    def test_same_value_store_stays_clean(self):
        machine = silent_machine()
        machine.memory.write_word(0x10000, 7)
        machine.store_word(0x10000, 7)  # silent: same value
        assert 0x10000 in machine.l1d
        assert not machine.l1d.is_dirty(0x10000)

    def test_changed_value_store_dirties(self):
        machine = silent_machine()
        machine.memory.write_word(0x10000, 7)
        machine.store_word(0x10000, 8)
        assert machine.l1d.is_dirty(0x10000)
        assert machine.memory.read_word(0x10000) == 8

    def test_functionally_transparent(self):
        machine = silent_machine()
        for value in (5, 5, 6, 6, 5):
            machine.store_word(0x10000, value)
        assert machine.load_word(0x10000) == 5

    def test_counters_still_move(self):
        machine = silent_machine()
        machine.memory.write_word(0x10000, 7)
        machine.store_word(0x10000, 7)
        assert machine.stats.stores == 1
        assert machine.stats.l1d_refs == 1

    def test_disabled_by_default(self):
        machine = Machine(MachineConfig())
        machine.memory.write_word(0x10000, 7)
        machine.store_word(0x10000, 7)
        assert machine.l1d.is_dirty(0x10000)


class TestTheDeferredLeak:
    """Software CT's store sweep breaks under silent stores."""

    @staticmethod
    def _run(ctx, secret):
        machine = ctx.machine
        base = machine.allocator.alloc_words(64)
        for i in range(64):
            machine.memory.write_word(base + 4 * i, 0)
        ds = ctx.register_ds(base, 256, "t")
        # constant-time store of a secret-dependent VALUE at a
        # secret-dependent LINE: the sweep rewrites the other
        # lines with their own values -> squashed -> clean, while
        # the target line's changed value -> dirty.  The dirty
        # footprint now names the secret's line.
        ctx.store(ds, base + 4 * ((secret * 16) % 64), secret + 1)

    def test_ct_store_sweep_leaks_with_silent_stores(self):
        report = sanitize(
            lambda: SoftwareCTContext(silent_machine()),
            self._run,
            secrets=(1, 2, 3),
        )
        assert not report.clean

    def test_same_program_is_safe_without_silent_stores(self):
        report = sanitize(
            lambda: SoftwareCTContext(Machine(MachineConfig())),
            self._run,
            secrets=(1, 2, 3),
        )
        assert report.clean, report.describe()
