"""Software dataflow linearization — the state-of-the-art baseline.

This context reproduces what Constantine [9] (and the transformations
of Sec. 2.3) emits: every secret-dependent access touches **every**
line of its dataflow linearization set, selecting the wanted word with
predicated moves, so the cache footprint is identical for every secret.

* A linearized **load** reads all DS lines once.
* A linearized **store** reads *and writes back* every DS line
  ("each write requires first reading the data out and then writing it
  back"), so the dirty footprint is secret-independent too.
* A **gather** of k addresses does one sweep and k selects per line
  batch — the amortization Constantine's vectorized epilogues give.

``simd=True`` (default) models the avx2-optimized sweep the paper
evaluates ("even with the support of avx2 optimization...", Sec. 3.1);
``simd=False`` is the scalar variant, the second line of Figure 2.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.machine import Machine
from repro.ct.context import MitigationContext
from repro.ct.ds import DataflowLinearizationSet
from repro.memory import address as addr_math


class SoftwareCTContext(MitigationContext):
    """Constantine-style full-DS-sweep mitigation."""

    def __init__(self, machine: Machine, simd: bool = True) -> None:
        super().__init__(machine)
        self.simd = simd
        self.name = "ct" if simd else "ct-scalar"

    def _elem_insts(self) -> int:
        costs = self.machine.costs
        return costs.ct_simd_elem_insts if self.simd else costs.ct_elem_insts

    def load(self, ds: DataflowLinearizationSet, addr: int) -> int:
        """Sweep every DS line; keep the word whose line matches ``addr``."""
        ds.require_member(addr)
        machine = self.machine
        machine.execute(machine.costs.ct_visit_insts)
        machine.sweep_load_lines(ds, pre_insts=self._elem_insts())
        # the cmov the sweep performs: keep only the requested word
        return machine.memory.read_word(addr)

    def store(self, ds: DataflowLinearizationSet, addr: int, value: int) -> None:
        """Read-modify-write every DS line; only ``addr``'s word changes."""
        ds.require_member(addr)
        machine = self.machine
        machine.execute(machine.costs.ct_visit_insts)
        elem_insts = self._elem_insts() + machine.costs.ct_store_elem_extra_insts
        machine.sweep_store_lines(
            ds,
            addr_math.line_offset(addr),
            target_idx=ds.line_index(addr_math.line_base(addr)),
            target_fn=lambda current: value,
            pre_insts=elem_insts,
        )

    def rmw(self, ds: DataflowLinearizationSet, addr: int, fn) -> int:
        """Fused read-modify-write in ONE sweep.

        This is exactly the paper's transformed histogram inner loop::

            for j in DS: p = out[j]; out[j] = (j==t) ? fn(p) : p

        Every DS line is read and written back, so both the access and
        the dirty footprints are secret-independent.
        """
        ds.require_member(addr)
        machine = self.machine
        machine.execute(machine.costs.ct_visit_insts)
        elem_insts = self._elem_insts() + machine.costs.ct_store_elem_extra_insts
        target_idx = ds.line_index(addr_math.line_base(addr))
        values = machine.sweep_store_lines(
            ds,
            addr_math.line_offset(addr),
            target_idx=target_idx,
            target_fn=fn,
            pre_insts=elem_insts,
        )
        return values[target_idx]

    def gather(
        self, ds: DataflowLinearizationSet, addrs: Sequence[int]
    ) -> List[int]:
        """Batched loads from one DS: one sweep per requested cache line.

        Constantine's vectorized epilogue services one 64-byte chunk of
        requested data per linearization pass, so a k-line gather costs
        k sweeps.  The first sweep is simulated in full; the remaining
        ``k - 1`` repeat its access pattern over now-resident lines and
        are charged to the counters at streaming cost (see
        ``CostModel.ct_gather_repeat_latency``).
        """
        for a in addrs:
            ds.require_member(a)
        machine = self.machine
        machine.execute(machine.costs.ct_visit_insts)
        wanted = {}
        for i, a in enumerate(addrs):
            wanted.setdefault(addr_math.line_base(a), []).append(i)
        results = [0] * len(addrs)
        machine.sweep_load_lines(ds, pre_insts=self._elem_insts())
        # per-requested-word selects out of the swept lines
        machine.execute(machine.costs.gather_elem_insts * len(addrs))
        read_word = machine.memory.read_word
        for indices in wanted.values():
            for i in indices:
                results[i] = read_word(addrs[i])
        repeat_sweeps = max(len(wanted) - 1, 0)
        if repeat_sweeps:
            machine.execute(repeat_sweeps * machine.costs.ct_visit_insts)
            machine.charge_memory(
                repeat_sweeps * len(ds.lines),
                machine.costs.ct_gather_repeat_latency,
            )
        return results
