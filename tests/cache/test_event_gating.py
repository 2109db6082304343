"""Regression tests for hot-path event gating.

The caches check ``EventBus.has_listeners`` before building/emitting
events, and the BIA subscribes to its monitored cache *lazily* (only
while it holds live entries).  These are pure optimizations: the flag
must track membership exactly through mid-run subscribe/unsubscribe,
survive :meth:`Machine.save_state` / ``restore_state`` / ``fork``, and
never change simulated counters.
"""

from repro.attacks.observer import ObservableTraceRecorder
from repro.cache.events import CacheListener, EventBus
from repro.core.machine import Machine, MachineConfig


def _touch(machine, base, n=64, stride=64):
    for i in range(n):
        machine.load_word(base + stride * i)
        machine.store_word(base + stride * i, i)


class TestHasListenersFlag:
    def test_tracks_subscribe_unsubscribe(self):
        bus = EventBus("L1D")
        a, b = CacheListener(), CacheListener()
        assert not bus.has_listeners
        bus.subscribe(a)
        assert bus.has_listeners
        bus.subscribe(b)
        bus.unsubscribe(a)
        assert bus.has_listeners  # b still there
        bus.unsubscribe(b)
        assert not bus.has_listeners
        bus.unsubscribe(b)  # double-unsubscribe stays consistent
        assert not bus.has_listeners

    def test_per_event_follows_the_listener_class(self):
        class HitRuns(CacheListener):
            def on_hit_run(self, cache_name, line_addrs):
                pass

        bus = EventBus("L1D")
        runs, plain = HitRuns(), CacheListener()
        bus.subscribe(runs)
        assert bus.has_listeners and not bus.per_event
        bus.subscribe(plain)
        assert bus.per_event
        bus.unsubscribe(plain)
        assert not bus.per_event
        bus.unsubscribe(runs)
        assert not bus.has_listeners and not bus.per_event

    def test_mid_run_subscribe_sees_only_later_events(self):
        m = Machine(MachineConfig())
        base = m.allocator.alloc(8 * 1024, "a")
        _touch(m, base, 32)  # un-observed prefix
        l1d = m.hierarchy.level("L1D")
        rec = ObservableTraceRecorder()
        rec.attach(l1d)
        assert l1d.events.has_listeners
        _touch(m, base, 32)
        observed = len(rec.events)
        assert observed > 0
        rec.detach()
        assert not l1d.events.has_listeners
        _touch(m, base, 32)
        assert len(rec.events) == observed  # nothing after unsubscribe

    def test_gating_never_changes_counters(self):
        ma, mb = Machine(MachineConfig()), Machine(MachineConfig())
        base = None
        for m in (ma, mb):
            base = m.allocator.alloc(8 * 1024, "a")
        rec = ObservableTraceRecorder()
        for name in ("L1D", "L2", "LLC"):
            rec.attach(ma.hierarchy.level(name))
        _touch(ma, base, 96)
        _touch(mb, base, 96)
        assert ma.snapshot() == mb.snapshot()
        for name in ("L1D", "L2", "LLC"):
            sa = ma.hierarchy.level(name).stats
            sb = mb.hierarchy.level(name).stats
            assert (sa.hits, sa.misses, sa.fills, sa.evictions) == (
                sb.hits, sb.misses, sb.fills, sb.evictions
            )


class TestGatingAcrossForkRestore:
    def test_restore_preserves_external_subscription(self):
        m = Machine(MachineConfig())
        base = m.allocator.alloc(4 * 1024, "a")
        l1d = m.hierarchy.level("L1D")
        rec = ObservableTraceRecorder()
        rec.attach(l1d)
        snap = m.save_state()
        _touch(m, base, 16)
        assert rec.events
        m.restore_state(snap)
        # observer wiring is construction-time plumbing: still attached
        assert l1d.events.has_listeners
        before = len(rec.events)
        _touch(m, base, 16)
        assert len(rec.events) > before

    def test_fork_does_not_carry_external_listeners(self):
        m = Machine(MachineConfig())
        base = m.allocator.alloc(4 * 1024, "a")
        rec = ObservableTraceRecorder()
        rec.attach(m.hierarchy.level("L1D"))
        _touch(m, base, 8)
        clone = m.fork()
        assert not clone.hierarchy.level("L1D").events.has_listeners
        seen = len(rec.events)
        _touch(clone, base, 8)
        assert len(rec.events) == seen  # clone activity is invisible
        assert m.hierarchy.level("L1D").events.has_listeners  # parent keeps it


class TestLazyBIASubscription:
    """The BIA joins its monitored bus only while it holds live entries."""

    def test_idle_bia_is_off_the_bus(self):
        m = Machine(MachineConfig())
        bus = m.hierarchy.level(m.config.bia_level).events
        # no CT op has allocated an entry: insecure/software-CT runs
        # on a BIA machine pay zero fan-out cost
        assert not bus.has_listeners
        base = m.allocator.alloc(4 * 1024, "a")
        _touch(m, base, 16)
        assert not bus.has_listeners

    def test_first_allocation_subscribes(self):
        m = Machine(MachineConfig())
        bus = m.hierarchy.level(m.config.bia_level).events
        base = m.allocator.alloc(4 * 1024, "a")
        m.ctops.ctload(base)
        assert m.bia._live_entries > 0
        assert bus.has_listeners

    def test_restore_to_pristine_unsubscribes(self):
        m = Machine(MachineConfig())
        bus = m.hierarchy.level(m.config.bia_level).events
        base = m.allocator.alloc(4 * 1024, "a")
        pristine = m.save_state()
        m.ctops.ctload(base)
        assert bus.has_listeners
        warmed = m.save_state()
        m.restore_state(pristine)
        assert not bus.has_listeners  # empty restored table leaves the bus
        m.restore_state(warmed)
        assert bus.has_listeners  # live restored table rejoins it
        # and a fresh allocation after a pristine restore re-subscribes
        m.restore_state(pristine)
        m.ctops.ctload(base)
        assert bus.has_listeners

    def test_lazy_subscription_is_observationally_silent(self):
        ma, mb = Machine(MachineConfig()), Machine(MachineConfig())
        base = None
        for m in (ma, mb):
            base = m.allocator.alloc(8 * 1024, "a")
        # ma: plain traffic then CT ops; mb: same ops, but force the
        # BIA onto the bus from the start (as the eager design did)
        mb.bia._live_entries += 1
        mb.bia._sync_subscription()
        mb.bia._live_entries -= 1
        _touch(ma, base, 32)
        _touch(mb, base, 32)
        ma.ctops.ctload(base)
        mb.ctops.ctload(base)
        _touch(ma, base, 32)
        _touch(mb, base, 32)
        assert ma.snapshot() == mb.snapshot()
        assert ma.bia.stats == mb.bia.stats
