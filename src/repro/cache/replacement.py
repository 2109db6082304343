"""Replacement policies for set-associative structures.

Both the caches and the BIA (which the paper says uses "a
set-associative policy for placement and an LRU policy for
replacement", Sec. 4.2) share these policies.

A policy instance *is* one set: it holds the set's ``ways`` (an item
per way, ``None`` when empty) and its key -> way index ``by_addr``
next to its ranking state.  The owner keeps ``ways`` and ``by_addr``
in step (a fill writes both, an invalidation clears both), and
occupancy is read off them.  The owner calls

* :meth:`on_fill` when a way is (re)populated,
* :meth:`_rank_touch` when a resident way is touched by a demand access
  — or :meth:`touch_n` for ``k`` touches of one way in a row (the
  run-length kernels).  The paper's security argument requires that
  secret-relevant accesses *skip* this call ("not updating replacement
  bit (LRU bit) if the access is secret-relevant", Sec. 3.2); in the
  model those are the CTLoad/CTStore probes, which are pure tag
  lookups and never reach the policy, and
* :meth:`victim` to choose a way to evict (empty ways first).

An invalidation is the owner's alone: emptying a way changes no
ranking state.  ``make_policy`` builds a policy from its registry name
so experiment configs can select policies by string.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Type

from repro.errors import ConfigurationError


class ReplacementPolicy:
    """Base class: one set's ways and key index; subclasses rank the ways.

    ``seed`` seeds the random policy; the others ignore it, so every
    policy class builds a set as ``cls(num_ways, seed)``.  Subclass
    constructors call ``ReplacementPolicy.__init__`` by name: every
    cache set is built through them, and on CPython 3.11 a zero-argument
    ``super()`` costs about as much as the rest of an LRU set's build.
    """

    __slots__ = ("num_ways", "ways", "by_addr")

    def __init__(self, num_ways: int, seed: int = 0) -> None:
        if num_ways <= 0:
            raise ConfigurationError(f"num_ways must be positive: {num_ways}")
        self.num_ways = num_ways
        #: the item in each way (a cache line, a BIA entry), or None
        self.ways: List[Optional[object]] = [None] * num_ways
        #: key (line address, BIA page index) -> way of every item
        self.by_addr: Dict[int, int] = {}

    # -- hooks ---------------------------------------------------------------

    def on_fill(self, way: int) -> None:
        self._rank_touch(way)

    def touch_n(self, way: int, k: int) -> None:
        """Exactly ``k`` :meth:`_rank_touch` calls on ``way`` (``k >= 1``).

        The run-length kernels charge a run of same-line (or same-group)
        hits with one call.  This loop keeps a policy defined outside
        this module exact; the stock policies override it in O(1).
        """
        rank_touch = self._rank_touch
        for _ in range(k):
            rank_touch(way)

    def victim(self) -> int:
        """Way to evict: the first empty way, else the policy's choice."""
        if len(self.by_addr) < self.num_ways:
            return self.ways.index(None)
        return self._rank_victim()

    def victim_among(self, allowed: Sequence[int]) -> Optional[int]:
        """Victim restricted to ``allowed`` ways (locking support).

        Used by PLcache-style designs where some ways are pinned:
        empty allowed ways first, then the policy's preference among
        the allowed ones.  Returns None when ``allowed`` is empty.
        """
        if not allowed:
            return None
        ways = self.ways
        for way in allowed:
            if ways[way] is None:
                return way
        return self._rank_victim_among(allowed)

    def _rank_victim_among(self, allowed: Sequence[int]) -> int:
        """Default: the first allowed way (subclasses refine)."""
        return allowed[0]

    # -- state cloning (machine fork/restore support) --------------------------

    def clone(self) -> "ReplacementPolicy":
        """Deep copy of the set: its items, key index and ranking state.

        Used by :meth:`repro.core.machine.Machine.save_state` /
        ``fork``: a restored set must continue choosing *exactly* the
        victims the original would have chosen, which for the random
        policy includes the RNG stream position.  Each item is copied
        by its own ``clone()``.
        """
        new = type(self).__new__(type(self))
        new.num_ways = self.num_ways
        new.ways = [None if item is None else item.clone() for item in self.ways]
        new.by_addr = self.by_addr.copy()
        self._clone_rank_state(new)
        return new

    def _clone_rank_state(self, new: "ReplacementPolicy") -> None:
        raise NotImplementedError

    # -- subclass API ----------------------------------------------------------

    def _rank_touch(self, way: int) -> None:
        raise NotImplementedError

    def _rank_victim(self) -> int:
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the way touched longest ago.

    The loops of ``SetAssociativeCache.access_lines`` (without
    ``counts``) and ``rmw_lines`` inline :meth:`touch_n` on
    ``_stamp``/``_last_use``, so a change to this layout must change
    them too; ``test_listener_free_run_kernels_match_scalar_access`` in
    tests/core/test_bulk_equiv.py pins them against this class.
    """

    __slots__ = ("_stamp", "_last_use")

    def __init__(self, num_ways: int, seed: int = 0) -> None:
        ReplacementPolicy.__init__(self, num_ways)
        self._stamp = 0
        self._last_use: List[int] = [0] * num_ways

    def _rank_touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def touch_n(self, way: int, k: int) -> None:
        self._stamp += k
        self._last_use[way] = self._stamp

    def _rank_victim(self) -> int:
        # list.index(min(...)) runs both passes at C speed and returns
        # the first minimal index — identical to
        # ``min(range(n), key=last_use.__getitem__)``.
        last_use = self._last_use
        return last_use.index(min(last_use))

    def _rank_victim_among(self, allowed: Sequence[int]) -> int:
        return min(allowed, key=self._last_use.__getitem__)

    def _clone_rank_state(self, new: "LRUPolicy") -> None:
        new._stamp = self._stamp
        new._last_use = list(self._last_use)

    def recency_order(self) -> List[int]:
        """Ways from most- to least-recently used (test/observer hook).

        This *is* attacker-relevant state: the trace-equivalence
        checker hashes it to verify that mitigated programs leave
        secret-independent LRU state behind.
        """
        ways = self.ways
        occupied = [w for w in range(self.num_ways) if ways[w] is not None]
        return sorted(occupied, key=self._last_use.__getitem__, reverse=True)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order is fill order; touches ignored."""

    __slots__ = ("_stamp", "_fill_time")

    def __init__(self, num_ways: int, seed: int = 0) -> None:
        ReplacementPolicy.__init__(self, num_ways)
        self._stamp = 0
        self._fill_time: List[int] = [0] * num_ways

    def on_fill(self, way: int) -> None:
        self._stamp += 1
        self._fill_time[way] = self._stamp

    def _rank_touch(self, way: int) -> None:
        pass

    def touch_n(self, way: int, k: int) -> None:
        pass

    def _rank_victim(self) -> int:
        return min(range(self.num_ways), key=self._fill_time.__getitem__)

    def _rank_victim_among(self, allowed: Sequence[int]) -> int:
        return min(allowed, key=self._fill_time.__getitem__)

    def _clone_rank_state(self, new: "FIFOPolicy") -> None:
        new._stamp = self._stamp
        new._fill_time = list(self._fill_time)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim (seeded so simulations stay reproducible)."""

    __slots__ = ("_rng",)

    def __init__(self, num_ways: int, seed: int = 0) -> None:
        ReplacementPolicy.__init__(self, num_ways)
        self._rng = random.Random(seed)

    def _rank_touch(self, way: int) -> None:
        pass

    def touch_n(self, way: int, k: int) -> None:
        pass

    def _rank_victim(self) -> int:
        return self._rng.randrange(self.num_ways)

    def _clone_rank_state(self, new: "RandomPolicy") -> None:
        new._rng = random.Random()
        new._rng.setstate(self._rng.getstate())


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways.

    Internal nodes hold one bit pointing towards the *less* recently
    used half; an access flips the bits on its root-to-leaf path to
    point away from itself.
    """

    __slots__ = ("_bits",)

    def __init__(self, num_ways: int, seed: int = 0) -> None:
        ReplacementPolicy.__init__(self, num_ways)
        if num_ways & (num_ways - 1):
            raise ConfigurationError(
                f"tree PLRU needs power-of-two ways, got {num_ways}"
            )
        self._bits: List[int] = [0] * max(num_ways - 1, 1)

    def _rank_touch(self, way: int) -> None:
        node = 0
        lo, hi = 0, self.num_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # cold half is the right one
                node = 2 * node + 1
                hi = mid
            else:
                self._bits[node] = 0  # cold half is the left one
                node = 2 * node + 2
                lo = mid
        return None

    def touch_n(self, way: int, k: int) -> None:
        # A touch points every bit on the way's path away from it, so a
        # second touch of the same way changes nothing.
        self._rank_touch(way)

    def _rank_victim(self) -> int:
        node = 0
        lo, hi = 0, self.num_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._bits[node] == 0:
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        return lo

    def _clone_rank_state(self, new: "TreePLRUPolicy") -> None:
        new._bits = list(self._bits)


_REGISTRY: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": TreePLRUPolicy,
}


def policy_factory(name: str) -> Type[ReplacementPolicy]:
    """Resolve a registry name to its policy class.

    ``cls(num_ways, seed)`` builds one set.  Raises
    :class:`ConfigurationError` for an unknown name, so owners that
    build sets lazily can resolve the name once, at construction.
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"choices: {sorted(_REGISTRY)}"
        ) from None


def make_policy(name: str, num_ways: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by registry name."""
    return policy_factory(name)(num_ways, seed)


def policy_names() -> List[str]:
    """Registered policy names (for ablation sweeps)."""
    return sorted(_REGISTRY)
