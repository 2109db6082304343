"""Observable-trace recorder: what an access-driven attacker could see.

Per the threat model (Sec. 2.4), the attacker observes the shared
cache's *state changes*: which lines get filled, which get evicted (and
whether dirty — write-back traffic), invalidations, dirty-bit
transitions, and replacement-order updates (the paper explicitly calls
out LRU bits and dirty bits as channels PLcache fails to close,
Sec. 6.1).  A tag lookup that changes none of these — a CTLoad /
CTStore probe — is invisible.

:class:`ObservableTraceRecorder` subscribes to one or more cache
levels and logs exactly that event stream.  The trace sanitizer
(:mod:`repro.analysis.sanitizer`) runs a program once per secret and
compares each run's events and final cache state: equal ones mean the
attacker's view is independent of the secret.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cache.events import CacheListener
from repro.cache.set_assoc import SetAssociativeCache


class ObservableTraceRecorder(CacheListener):
    """Records the attacker-visible event stream of cache levels."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []
        self._caches: List[SetAssociativeCache] = []

    def attach(self, cache: SetAssociativeCache) -> None:
        cache.events.subscribe(self)
        self._caches.append(cache)

    def detach(self) -> None:
        for cache in self._caches:
            cache.events.unsubscribe(self)
        self._caches.clear()

    def clear(self) -> None:
        self.events.clear()

    # -- CacheListener -------------------------------------------------------

    def on_hit(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        # Every hit updates the replacement order: observable state.
        self.events.append(("hit", cache_name, line_addr))

    def on_fill(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        self.events.append(("fill", cache_name, line_addr, dirty))

    def on_evict(self, cache_name: str, line_addr: int, dirty: bool) -> None:
        self.events.append(("evict", cache_name, line_addr, dirty))

    def on_invalidate(self, cache_name: str, line_addr: int) -> None:
        self.events.append(("inval", cache_name, line_addr))

    def on_dirty(self, cache_name: str, line_addr: int) -> None:
        self.events.append(("dirty", cache_name, line_addr))

    def on_clean(self, cache_name: str, line_addr: int) -> None:
        self.events.append(("clean", cache_name, line_addr))

    # -- digests -----------------------------------------------------------------

    def final_state_digest(self) -> Tuple:
        """Resident lines + dirty bits + replacement order of every set.

        Only materialised, non-empty sets are visited: a dense scan
        over a 16k-set LLC dominated the sanitizer-replay profile for
        short programs.
        """
        return tuple(
            (cache.name, set_idx, contents, order)
            for cache in self._caches
            for set_idx, contents, order in cache.occupied_sets()
        )
