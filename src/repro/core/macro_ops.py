"""Macro-operations: user-safe packaging of the algorithms (Sec. 6.2).

Sec. 6.2's concern: if user code could execute raw CTLoad/CTStore, it
could read other programs' existence/dirtiness bitmaps and save itself
a Prime+Probe.  The paper's answer is to pack whole Algorithms 2 and 3
into X86-64 *macro-operations*, exposing only those to users: the
bitmap words then never leave the micro-architecture.

:class:`MacroOpUnit` models that boundary:

* :meth:`secure_load` / :meth:`secure_store` / :meth:`secure_rmw` run
  the full algorithms and return (at most) the *data* — no bitmap ever
  crosses the API;
* entering **user mode** (:meth:`enter_user_mode`) makes the machine
  reject raw ``ctload``/``ctstore`` calls with a
  :class:`~repro.errors.ProtocolError`, while the macro-ops keep
  working (they execute the micro-ops from privileged microcode).

DS descriptors are registered with the unit up front (the compiler's
job in the paper's toolchain) and addressed by handle.
"""

from __future__ import annotations

from typing import Dict

from repro.core.machine import Machine
from repro.ct.bia_ops import BIAContext
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ProtocolError


class MacroOpUnit:
    """The user-visible secure-access ISA surface."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._ctx = BIAContext(machine)
        self._descriptors: Dict[int, DataflowLinearizationSet] = {}
        self._next_handle = 1

    # -- DS descriptor table ---------------------------------------------------

    def define_ds(self, base: int, size_bytes: int, name: str = "") -> int:
        """Register a DS descriptor; returns its handle."""
        handle = self._next_handle
        self._next_handle += 1
        with self.machine.microcode():
            self._descriptors[handle] = self._ctx.register_ds(
                base, size_bytes, name or f"ds{handle}"
            )
        return handle

    def _ds(self, handle: int) -> DataflowLinearizationSet:
        try:
            return self._descriptors[handle]
        except KeyError:
            raise ProtocolError(f"unknown DS descriptor handle {handle}") from None

    # -- mode control ------------------------------------------------------------

    def enter_user_mode(self) -> None:
        """Hide the raw micro-ops from subsequent (user) code."""
        self.machine.user_mode = True

    def exit_user_mode(self) -> None:
        self.machine.user_mode = False

    # -- the macro-operations -------------------------------------------------------

    def secure_load(self, handle: int, addr: int) -> int:
        """Algorithm 2 as one macro-op; returns only the data word."""
        with self.machine.microcode():
            return self._ctx.load(self._ds(handle), addr)

    def secure_store(self, handle: int, addr: int, value: int) -> None:
        """Algorithm 3 as one macro-op; returns nothing."""
        with self.machine.microcode():
            self._ctx.store(self._ds(handle), addr, value)

    def secure_rmw(self, handle: int, addr: int, fn) -> int:
        """Load-then-store macro-op; returns the old data word."""
        with self.machine.microcode():
            return self._ctx.rmw(self._ds(handle), addr, fn)

    def secure_gather(self, handle: int, addrs) -> list:
        """Batched Algorithm 2; returns only the data words."""
        with self.machine.microcode():
            return self._ctx.gather(self._ds(handle), addrs)
