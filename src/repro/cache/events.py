"""Cache event bus.

The paper's BIA "monitors the cache for any update" (Sec. 4.2): hits,
fills, invalidations, and dirty-bit transitions all flow to it.  The
attack substrate needs the same feed to build the *observable trace*
an access-driven attacker could reconstruct.  Rather than wiring the
BIA and the observers into the cache directly, each cache owns an
:class:`EventBus` that fans events out to registered listeners.

Events carry the cache's name so one listener can watch several
levels.  Listener methods default to no-ops, so implementations only
override what they care about.

Every event is a state change.  A hit comes from a demand access, and
every demand access updates the replacement order; CTLoad/CTStore
probes are pure tag lookups and emit nothing.

A listener that needs only the net effect of a run of hits (the BIA:
existence and the end-of-run dirty bit) overrides
:meth:`CacheListener.on_hit_run`.  While every listener on a bus
does, the caches' run kernels serve that level and hand each all-hit
stretch to ``on_hit_run`` in one call, before the caller fills the
line that ended it; fills, evictions, invalidations, dirty and clean
transitions and scalar hits still go one event at a time.  A listener
that keeps the default ``on_hit_run`` (the sanitizer's trace
recorder, the attack observers, the inclusive-LLC back-invalidator)
needs every hit as its own event: a batch that starts at its level
takes the machine's scalar ``access`` loop, and the run kernels
refuse that level.
"""

from __future__ import annotations

from typing import List


class CacheListener:
    """Interface for components that observe a cache's state changes."""

    def on_hit(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        """A demand access found ``line_addr`` resident (``dirty`` = its
        dirty bit) and moved it in the replacement order.

        CT micro-op probes are pure lookups and emit no event (Sec. 3.2).
        """

    def on_hit_run(self, cache_name: str, line_addrs) -> None:
        """A run kernel's demand accesses hit every line of
        ``line_addrs``, in order, with no other event in between.

        A listener class that overrides this method takes hit runs:
        while every listener on the bus does, batches at that level
        run on the run kernels, and each all-hit stretch arrives as
        this one call in place of the run's :meth:`on_hit` and
        :meth:`on_dirty` events.  A write or read-modify-write run has
        already set each line's dirty bit, so the cache holds each
        line's end-of-run state.  A class that keeps this default
        receives every hit as an :meth:`on_hit` call: batches starting
        at its level take the scalar loop.
        """

    def on_fill(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        """``line_addr`` was installed into the cache."""

    def on_evict(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        """``line_addr`` was evicted (capacity/conflict victim)."""

    def on_invalidate(self, cache_name: str, line_addr: int) -> None:
        """``line_addr`` was invalidated (flush or coherence)."""

    def on_dirty(self, cache_name: str, line_addr: int) -> None:
        """``line_addr``'s dirty bit transitioned 0 -> 1."""

    def on_clean(self, cache_name: str, line_addr: int) -> None:
        """``line_addr``'s dirty bit transitioned 1 -> 0 (write-back)."""


def _per_event(listener: CacheListener) -> bool:
    """Whether ``listener`` needs every hit as its own event: its class
    keeps the default :meth:`CacheListener.on_hit_run`."""
    return type(listener).on_hit_run is CacheListener.on_hit_run


class EventBus:
    """Fan-out of cache events to listeners, tagged with the cache name.

    Hot-path design: the owning cache checks :attr:`has_listeners`
    before even *calling* an emit helper, so a listener-free cache
    (every ``insecure``/software-CT run) pays zero fan-out cost per
    access.  :attr:`per_event` decides where a batch runs: while it is
    False the run kernels serve the level and deliver each all-hit
    stretch with :meth:`hit_run`; while it is True the machine sends
    batches that start at the level to its scalar loop, and the run
    kernels refuse the level.  Membership is tracked in a
    parallel ``set`` of listener ids so subscribe/unsubscribe are O(1)
    while ``_listeners`` keeps deterministic insertion order for
    fan-out.
    """

    __slots__ = (
        "cache_name", "_listeners", "_member_ids", "has_listeners",
        "per_event",
    )

    def __init__(self, cache_name: str) -> None:
        self.cache_name = cache_name
        self._listeners: List[CacheListener] = []
        self._member_ids: set = set()
        #: maintained on subscribe/unsubscribe; hot-path callers gate
        #: emission on this flag instead of probing the list each time.
        self.has_listeners = False
        #: some listener keeps the default ``on_hit_run`` and so needs
        #: every hit as its own event (batches at this level take the
        #: scalar loop); maintained alongside ``has_listeners``.
        self.per_event = False

    def subscribe(self, listener: CacheListener) -> None:
        if id(listener) not in self._member_ids:
            self._member_ids.add(id(listener))
            self._listeners.append(listener)
            self.has_listeners = True
            if _per_event(listener):
                self.per_event = True

    def unsubscribe(self, listener: CacheListener) -> None:
        """Remove ``listener``; a never-subscribed listener is a no-op.

        Removal is by *identity*, matching the ``id()``-based
        membership tracking: ``list.remove`` compares with ``==``, so
        a listener type overriding ``__eq__`` could evict a different
        (equal-comparing) subscriber while its own entry stayed behind
        — desynchronizing ``_listeners`` from ``_member_ids``.
        """
        if id(listener) not in self._member_ids:
            return
        self._member_ids.discard(id(listener))
        for index, existing in enumerate(self._listeners):
            if existing is listener:
                del self._listeners[index]
                break
        self.has_listeners = bool(self._listeners)
        self.per_event = any(map(_per_event, self._listeners))

    # The emit helpers are hot-path: keep them branchless and tiny.
    # (Callers should gate on ``has_listeners``; the helpers stay
    # correct either way since iterating an empty list is a no-op.)

    def hit(self, line_addr: int, dirty: bool) -> None:
        for listener in self._listeners:
            listener.on_hit(self.cache_name, line_addr, dirty)

    def hit_run(self, line_addrs) -> None:
        """One all-hit run; called only while :attr:`per_event` is False."""
        for listener in self._listeners:
            listener.on_hit_run(self.cache_name, line_addrs)

    def fill(self, line_addr: int, dirty: bool) -> None:
        for listener in self._listeners:
            listener.on_fill(self.cache_name, line_addr, dirty)

    def evict(self, line_addr: int, dirty: bool) -> None:
        for listener in self._listeners:
            listener.on_evict(self.cache_name, line_addr, dirty)

    def invalidate(self, line_addr: int) -> None:
        for listener in self._listeners:
            listener.on_invalidate(self.cache_name, line_addr)

    def dirty(self, line_addr: int) -> None:
        for listener in self._listeners:
            listener.on_dirty(self.cache_name, line_addr)

    def clean(self, line_addr: int) -> None:
        for listener in self._listeners:
            listener.on_clean(self.cache_name, line_addr)
