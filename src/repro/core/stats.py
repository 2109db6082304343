"""Execution counters for the simulated machine.

These are the quantities the paper reports:

* ``insts``       — executed instructions (Fig. 8 "insts num"),
* ``l1i_refs``    — instruction-cache references; our straight-line
  fetch model charges one per instruction, matching how cachegrind's
  "L1i ref" scales in the Sec. 3.1 motivation table, so it *is*
  ``insts``,
* ``l1d_refs``    — data-cache port references: every load and store,
  CTLoad / CTStore probes included (they occupy the port like any
  access), so it is ``loads + stores + ct_loads + ct_stores``,
* ``cycles``      — latency-weighted execution time,
* load/store/CT-op breakdowns for the analysis in Fig. 8.

The two reference counts are read-only properties over the counters
that determine them, so no charge site can move one without the other.

DRAM and per-level cache counters live with their components; the
machine's :meth:`~repro.core.machine.Machine.snapshot` merges all of
them into one flat dict for the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class MachineStats:
    """Mutable counters for one actor's execution.

    ``slots=True``: these counters are bumped on every simulated
    instruction; the slot layout makes each attribute update a fixed
    offset write instead of a dict operation.
    """

    insts: int = 0
    loads: int = 0
    stores: int = 0
    ct_loads: int = 0
    ct_stores: int = 0
    cycles: float = 0.0

    @property
    def l1i_refs(self) -> int:
        """Instruction-cache references: one per instruction."""
        return self.insts

    @property
    def l1d_refs(self) -> int:
        """Data-cache port references: one per load, store and CT op."""
        return self.loads + self.stores + self.ct_loads + self.ct_stores

    def reset(self) -> None:
        self.insts = 0
        self.loads = 0
        self.stores = 0
        self.ct_loads = 0
        self.ct_stores = 0
        self.cycles = 0.0

    def clone(self) -> "MachineStats":
        return MachineStats(
            insts=self.insts,
            loads=self.loads,
            stores=self.stores,
            ct_loads=self.ct_loads,
            ct_stores=self.ct_stores,
            cycles=self.cycles,
        )

    def load_from(self, other: "MachineStats") -> None:
        """Overwrite counters in place (machine restore path)."""
        self.insts = other.insts
        self.loads = other.loads
        self.stores = other.stores
        self.ct_loads = other.ct_loads
        self.ct_stores = other.ct_stores
        self.cycles = other.cycles

    def as_dict(self) -> dict:
        return {
            "insts": self.insts,
            "l1i_refs": self.l1i_refs,
            "l1d_refs": self.l1d_refs,
            "loads": self.loads,
            "stores": self.stores,
            "ct_loads": self.ct_loads,
            "ct_stores": self.ct_stores,
            "cycles": self.cycles,
        }
