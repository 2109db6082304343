"""Mitigation contexts: the uniform access API workloads program against.

A workload performs every *secret-dependent* memory access through a
:class:`MitigationContext`:

* :meth:`load` / :meth:`store` — a single secret-dependent access,
  covered by a registered dataflow linearization set (DS);
* :meth:`gather` — a batch of secret-dependent loads sharing one DS
  and one program point (e.g. reading row ``u`` of an adjacency
  matrix where ``u`` is secret); real code generators amortize one
  linearization pass over the whole batch, and both schemes here do
  the same, so the comparison stays apples-to-apples.

Public (secret-independent) accesses go straight to the machine via
:meth:`plain_load` / :meth:`plain_store` or their batched forms
(:meth:`plain_load_words`, :meth:`plain_store_words`,
:meth:`plain_rmw_words`), and ALU work is charged with
:meth:`execute`.  Swapping the context — :class:`InsecureContext`,
:class:`~repro.ct.linearize.SoftwareCTContext`, or
:class:`~repro.ct.bia_ops.BIAContext` — changes the mitigation without
touching workload code, mirroring how Constantine recompiles the same
source.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence

from repro.core.machine import Machine
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ProtocolError


class MitigationContext:
    """Base class; subclasses implement the secret-dependent accesses."""

    #: short name used in experiment reports ("insecure", "ct", "bia-l1d", ...)
    name = "base"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._ds_registry: Dict[str, DataflowLinearizationSet] = {}

    # -- DS management -----------------------------------------------------------

    def register_ds(
        self, base: int, size_bytes: int, name: str = ""
    ) -> DataflowLinearizationSet:
        """Register the DS of a contiguous array and return its handle."""
        ds = DataflowLinearizationSet.from_range(base, size_bytes, name=name)
        if name:
            self._ds_registry[name] = ds
        return ds

    def ds(self, name: str) -> DataflowLinearizationSet:
        try:
            return self._ds_registry[name]
        except KeyError:
            raise ProtocolError(f"no DS registered under {name!r}") from None

    # -- warm-start forking -------------------------------------------------------

    def fork(self) -> "MitigationContext":
        """A clone of this context on a forked machine.

        The warm-start primitive behind
        :meth:`repro.lang.executor.WarmStart.run` (the repair driver's
        overhead triple): register and warm the DSs once, then fork per
        run instead of rebuild + replay.  The clone's machine continues
        from this machine's exact simulated state
        (:meth:`repro.core.machine.Machine.fork`); DS handles are
        shared — they are immutable address sets whose decomposition
        caches are geometry-keyed, hence fork-safe.  Subclasses holding
        machine-derived references override this to re-bind them.
        """
        clone = copy.copy(self)
        clone.machine = self.machine.fork()
        clone._ds_registry = dict(self._ds_registry)
        return clone

    # -- secret-dependent accesses (subclass responsibility) ------------------------

    def load(self, ds: DataflowLinearizationSet, addr: int) -> int:
        raise NotImplementedError

    def store(self, ds: DataflowLinearizationSet, addr: int, value: int) -> None:
        raise NotImplementedError

    def gather(
        self, ds: DataflowLinearizationSet, addrs: Sequence[int]
    ) -> List[int]:
        """Default gather: one :meth:`load` per address (subclasses batch)."""
        return [self.load(ds, a) for a in addrs]

    def rmw(self, ds: DataflowLinearizationSet, addr: int, fn) -> int:
        """Secret-dependent read-modify-write: ``mem[addr] = fn(mem[addr])``.

        Returns the *old* value.  The default is a load followed by a
        store; contexts override it with the fused form their code
        generator would emit (e.g. software CT's single
        read-select-write sweep — the paper's transformed histogram).
        """
        old = self.load(ds, addr)
        self.store(ds, addr, fn(old))
        return old

    # -- public accesses / ALU work ----------------------------------------------------

    def plain_load(self, addr: int) -> int:
        return self.machine.load_word(addr)

    def plain_store(self, addr: int, value: int) -> None:
        self.machine.store_word(addr, value)

    def plain_load_words(self, addrs) -> List[int]:
        """Batched :meth:`plain_load` (bit-identical, see load_words)."""
        return self.machine.load_words(addrs)

    def plain_store_words(self, addrs, values) -> None:
        """Batched :meth:`plain_store` (bit-identical, see store_words)."""
        self.machine.store_words(addrs, values)

    def plain_rmw_words(self, addrs, fn) -> List[int]:
        """Batched public read-modify-write: ``mem[a_i] = fn(i, mem[a_i])``.

        Bit-identical to a :meth:`plain_load` + :meth:`plain_store` pair
        per element (see ``Machine.rmw_words``'s per-element form);
        returns the loaded values.
        """
        return self.machine.rmw_words(addrs, update_fn=fn)

    def execute(self, n_insts: int) -> None:
        self.machine.execute(n_insts)


class InsecureContext(MitigationContext):
    """No mitigation: secret-dependent accesses go straight to the cache.

    This is the "original (insecure)" baseline every figure normalizes
    against.  Its secret-indexed accesses are ordinary loads and stores:
    the insecure program does nothing special, and their LRU updates
    and fills are exactly what the attacker observes.
    """

    name = "insecure"

    def load(self, ds: DataflowLinearizationSet, addr: int) -> int:
        ds.require_member(addr)
        return self.machine.load_word(addr)

    def store(self, ds: DataflowLinearizationSet, addr: int, value: int) -> None:
        ds.require_member(addr)
        self.machine.store_word(addr, value)
