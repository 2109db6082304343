"""Security: trace equivalence across secrets (the Sec. 5.3 property).

For every workload and every mitigated scheme, the attacker-observable
trace (fills, evictions, dirty transitions, LRU updates, final cache
state), the per-set access profile and the cycle count must be
identical for different secret inputs; the insecure version must
differ (otherwise the test itself has no power).  The relational
sanitizer checks all of them.
"""

import pytest

from repro.analysis.sanitizer import sanitize
from repro.attacks.observer import ObservableTraceRecorder
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.workloads import WORKLOADS

SMALL = {
    "histogram": 300,
    "permutation": 200,
    "binary_search": 300,
    "heappop": 300,
    "dijkstra": 16,
}

SECRETS = (1, 2, 3, 4)

CONTEXTS = {
    "insecure": InsecureContext,
    "ct": lambda machine: SoftwareCTContext(machine, simd=True),
    "ct-scalar": lambda machine: SoftwareCTContext(machine, simd=False),
    "bia": BIAContext,
}


def check(scheme, workload, size, config=None):
    """Sanitize ``workload`` under ``scheme``; the secrets are seeds."""
    make = CONTEXTS[scheme]
    return sanitize(
        lambda: make(Machine(config or MachineConfig())),
        lambda ctx, secret: WORKLOADS[workload].run(ctx, size, secret),
        secrets=SECRETS,
    )


@pytest.mark.parametrize("workload", sorted(SMALL))
class TestMitigatedSchemesAreSilent:
    def test_software_ct(self, workload):
        report = check("ct", workload, SMALL[workload])
        assert report.clean, report.describe()

    def test_bia(self, workload):
        report = check("bia", workload, SMALL[workload])
        assert report.clean, report.describe()


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_insecure_leaks(workload):
    """Sanity: the same checker flags the unmitigated program."""
    assert not check("insecure", workload, SMALL[workload]).clean


class TestL2BIASecurity:
    def test_histogram_with_l2_bia(self):
        report = check(
            "bia", "histogram", 300, MachineConfig(bia_level="L2")
        )
        assert report.clean, report.describe()


class TestScalarCT:
    def test_histogram_scalar_ct(self):
        report = check("ct-scalar", "histogram", 300)
        assert report.clean, report.describe()


class TestCTOpInvisibility:
    """CT micro-ops must produce zero observable events (Sec. 4.1)."""

    def test_ctload_produces_no_events(self):
        machine = Machine(MachineConfig())
        machine.load_word(0x10000)
        rec = ObservableTraceRecorder()
        for level in machine.hierarchy.levels:
            rec.attach(level)
        machine.ctload(0x10000)  # hit
        machine.ctload(0x20000)  # miss
        assert rec.events == []

    def test_ctstore_produces_no_events(self):
        machine = Machine(MachineConfig())
        machine.store_word(0x10000, 1)
        rec = ObservableTraceRecorder()
        for level in machine.hierarchy.levels:
            rec.attach(level)
        machine.ctstore(0x10000, 2)  # dirty hit: commits silently
        machine.ctstore(0x20000, 3)  # miss: does nothing
        assert rec.events == []

    def test_fetch_set_is_secret_independent(self):
        """Two BIA loads of different addresses in an identically
        prepared DS issue the same state-changing accesses."""
        views = []
        for target in (5, 200):
            machine = Machine(MachineConfig())
            ctx = BIAContext(machine)
            base = machine.allocator.alloc_words(300)
            for i in range(300):
                machine.memory.write_word(base + 4 * i, i)
            ds = ctx.register_ds(base, 1200, "a")
            rec = ObservableTraceRecorder()
            for level in machine.hierarchy.levels:
                rec.attach(level)
            ctx.load(ds, base + 4 * target)
            views.append((rec.events, rec.final_state_digest()))
        assert views[0] == views[1]
