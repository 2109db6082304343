"""Cross-core sharing: remote attacker on the victim's LLC."""

import pytest

from repro import params
from repro.core.machine import Machine, MachineConfig
from repro.core.multicore import RemoteCore
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext

LINE = params.LINE_SIZE


def shared_setup(inclusive=True, **kw):
    machine = Machine(MachineConfig(inclusive_llc=inclusive, **kw))
    remote = RemoteCore(machine)
    return machine, remote


class TestSharing:
    def test_remote_sees_victim_llc_lines(self):
        machine, remote = shared_setup()
        machine.load_word(0x10000)
        assert remote.llc_load(0x10000) == machine.llc.latency  # LLC hit

    def test_remote_private_caches_are_private(self):
        machine, remote = shared_setup()
        remote.load(0x10000)
        assert 0x10000 not in machine.l1d
        assert 0x10000 in remote.l1
        assert 0x10000 in machine.llc  # shared level

    def test_remote_loads_not_in_victim_stats(self):
        machine, remote = shared_setup()
        remote.load(0x10000)
        assert machine.stats.l1d_refs == 0

    def test_cross_core_flush(self):
        machine, remote = shared_setup()
        machine.load_word(0x10000)
        remote.flush(0x10000)
        assert machine.hierarchy.where(0x10000) == []
        # the victim's reload goes all the way to DRAM
        before = machine.dram.stats.reads
        machine.load_word(0x10000)
        assert machine.dram.stats.reads == before + 1


class TestGeometry:
    @pytest.mark.parametrize("overrides, l1", [
        ({}, (64 * 1024, 8)),  # Table 1
        ({"l1d_size": 4096, "l1d_assoc": 4}, (4096, 4)),
    ])
    def test_private_caches_follow_the_machine_config(self, overrides, l1):
        """Both cores are built from one ``MachineConfig``."""
        machine, remote = shared_setup(**overrides)
        assert (remote.l1.size_bytes, remote.l1.assoc) == l1
        assert remote.l1.latency == machine.l1d.latency
        assert (remote.l2.size_bytes, remote.l2.assoc, remote.l2.latency) == (
            machine.l2.size_bytes, machine.l2.assoc, machine.l2.latency
        )


class TestInclusivity:
    def test_llc_eviction_back_invalidates_victim_l1(self):
        machine, remote = shared_setup(inclusive=True)
        machine.load_word(0x10000)
        assert 0x10000 in machine.l1d
        machine.llc.invalidate(0x10000)
        assert 0x10000 not in machine.l1d
        assert 0x10000 not in machine.l2

    def test_non_inclusive_keeps_private_copies(self):
        machine, remote = shared_setup(inclusive=False)
        machine.load_word(0x10000)
        machine.llc.invalidate(0x10000)
        assert 0x10000 in machine.l1d

    def test_remote_core_enrolled_in_back_invalidation(self):
        machine, remote = shared_setup(inclusive=True)
        remote.load(0x10000)
        machine.llc.invalidate(0x10000)
        assert 0x10000 not in remote.l1


class TestCrossCorePrimeProbe:
    """LLC Prime+Probe from the remote core, per Sec. 2.4's second case."""

    def _attack(self, make_ctx, secret_line: int):
        machine, remote = shared_setup(inclusive=True)
        ctx = make_ctx(machine)
        base = machine.allocator.alloc_words(1024)  # 64 lines
        for i in range(1024):
            machine.memory.write_word(base + 4 * i, 0)
        ds = ctx.register_ds(base, 4096, "bins")
        target = base + secret_line * LINE
        target_set = machine.llc.set_index(target)
        # Prime: fill the target's LLC set with attacker lines.
        stride = machine.llc.num_sets * LINE
        attacker_lines = [
            0x4000_0000 + target_set * LINE + way * stride
            for way in range(machine.llc.assoc)
        ]
        for line in attacker_lines:
            remote.llc_load(line)
        # Victim: one secret-dependent load.
        ctx.load(ds, target)
        # Probe: count displaced attacker ways in that set.
        return sum(
            1
            for line in attacker_lines
            if remote.llc_load(line) > remote.llc_hit_latency()
        )

    def test_insecure_victim_detected(self):
        misses = self._attack(InsecureContext, secret_line=5)
        assert misses >= 1

    def test_bia_victim_constant_footprint(self):
        """Against the BIA victim the probe outcome is the same for
        every secret (the DS fetch is set-uniform)."""
        outcomes = {
            self._attack(BIAContext, secret_line=line) for line in (3, 17, 42)
        }
        assert len(outcomes) == 1
