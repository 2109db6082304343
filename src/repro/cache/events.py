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


class EventBus:
    """Fan-out of cache events to listeners, tagged with the cache name.

    Hot-path design: the owning cache checks :attr:`has_listeners`
    before even *calling* an emit helper, so a listener-free cache
    (every ``insecure``/software-CT run) pays zero fan-out cost per
    access.  Membership is tracked in a parallel ``set`` of listener
    ids so subscribe/unsubscribe are O(1) while ``_listeners`` keeps
    deterministic insertion order for fan-out.
    """

    __slots__ = ("cache_name", "_listeners", "_member_ids", "has_listeners")

    def __init__(self, cache_name: str) -> None:
        self.cache_name = cache_name
        self._listeners: List[CacheListener] = []
        self._member_ids: set = set()
        #: maintained on subscribe/unsubscribe; hot-path callers gate
        #: emission on this flag instead of probing the list each time.
        self.has_listeners = False

    def subscribe(self, listener: CacheListener) -> None:
        if id(listener) not in self._member_ids:
            self._member_ids.add(id(listener))
            self._listeners.append(listener)
            self.has_listeners = True

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

    # The emit helpers are hot-path: keep them branchless and tiny.
    # (Callers should gate on ``has_listeners``; the helpers stay
    # correct either way since iterating an empty list is a no-op.)

    def hit(self, line_addr: int, dirty: bool) -> None:
        for listener in self._listeners:
            listener.on_hit(self.cache_name, line_addr, dirty)

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
