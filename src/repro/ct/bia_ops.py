"""Algorithms 2 and 3: secure load/store via CTLoad/CTStore (Sec. 5).

The BIA context walks the DS page by page.  For each page it issues
one CTLoad (and for stores one CTStore), which simultaneously probes
the cache and returns the page's existence/dirtiness bitmap; it then
fetches only the lines of the page whose bits say "not already there"
(loads) / "not already dirty" (stores).  Both the CT-op address
(``page | addr[11:0]``) and the fetch set are constructed exactly as
the paper's pseudo-code, including Alg. 3's guard that the new value
is only ever written at the *true* target address (line 14), so the
fake data a missed CTLoad returns can never reach memory.

Security hinges on two facts this implementation preserves:

* the fetch set ``Bitmask & ~existence`` (resp. ``~dirtiness``) is a
  function of secret-independent state only (Sec. 5.3's induction), so
  the *state-changing* accesses are the same for every secret;
* CTLoad/CTStore never change cache state, so their secret-dependent
  within-page offsets are invisible to an access-driven attacker.

:meth:`BIAContext.gather` batches many loads from one DS — the form a
Constantine-style code generator emits for a secret-indexed row read.
Per page it (i) CTLoads each requested address (invisible; hits return
real data), (ii) CTLoads one fixed probe address for the page bitmap,
(iii) fetches ``Bitmask & ~existence`` — the only state-changing
accesses, secret-independent — and (iv) captures requested words whose
lines happened to be absent *from the fetch pass itself* (a missing
requested line is always in the fetch set, because the BIA never
over-reports existence).  Total CT-op count equals
``len(addrs) + num_pages`` regardless of the secret.

``fetch_threshold`` enables the Sec. 6.5 granularity optimization:
when a page's fetch set reaches the threshold, the fetch loop bypasses
the caches and goes straight to DRAM, avoiding the self-eviction storm
of a DS larger than the cache.  This is safe at the memory controller
because the closed-row-policy leak granularity is >= a page.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import params
from repro.core.machine import Machine
from repro.ct.context import MitigationContext
from repro.ct.ds import DataflowLinearizationSet
from repro.memory import address as addr_math

#: Inlined ``addr_math.line_base`` (see repro.core.machine).
_LINE_BASE_MASK = ~(params.LINE_SIZE - 1)


class BIAContext(MitigationContext):
    """Mitigation using the proposed hardware (BIA + CTLoad/CTStore)."""

    def __init__(
        self, machine: Machine, fetch_threshold: Optional[int] = None
    ) -> None:
        super().__init__(machine)
        self.fetch_threshold = fetch_threshold
        self.name = f"bia-{machine.config.bia_level.lower()}"

    def register_ds(self, base, size_bytes, name=""):
        """Register a DS, charging the one-time group/Bitmask
        preprocessing of Sec. 5.1 (at the machine's granularity M)."""
        ds = super().register_ds(base, size_bytes, name)
        costs = self.machine.costs
        view = ds.view(self.machine.management_bits)
        self.machine.execute(
            costs.bia_ds_setup_insts
            + costs.bia_ds_setup_per_page_insts * view.num_groups
        )
        return ds

    def _view(self, ds: DataflowLinearizationSet):
        """The DS grouped at this machine's management granularity."""
        return ds.view(self.machine.management_bits)

    # -- Algorithm 2 ----------------------------------------------------------------

    def load(self, ds: DataflowLinearizationSet, addr: int) -> int:
        ds.require_member(addr)
        machine = self.machine
        costs = machine.costs
        machine.execute(costs.bia_call_insts)
        view = self._view(ds)
        target_group = view.group_of(addr)
        ret_data = 0
        for group in view.groups:
            machine.execute(costs.bia_page_insts)
            addr_to_read = view.same_group_address(group, addr)
            data, existence = machine.ctload(addr_to_read)
            tofetch = view.bitmask(group) & ~existence
            fetched = self._fetch_pass(
                view, group, addr_to_read, tofetch, capture={addr_to_read}
            )
            if addr_to_read in fetched:
                data = fetched[addr_to_read]
            if group == target_group:  # the select on line 12
                ret_data = data
        return ret_data

    # -- Algorithm 3 -------------------------------------------------------------------

    def store(self, ds: DataflowLinearizationSet, addr: int, value: int) -> None:
        ds.require_member(addr)
        machine = self.machine
        costs = machine.costs
        machine.execute(costs.bia_call_insts)
        view = self._view(ds)
        target_group = view.group_of(addr)
        for group in view.groups:
            machine.execute(costs.bia_page_insts + costs.bia_store_page_extra_insts)
            addr_to_write = view.same_group_address(group, addr)
            ld_data, _existence = machine.ctload(addr_to_write)
            st_data_tmp = value if group == target_group else ld_data
            dirtiness = machine.ctstore(addr_to_write, st_data_tmp)
            tofetch = view.bitmask(group) & ~dirtiness
            # Lines 12-15: read-modify-write every non-dirty DS line of
            # the group; only the TRUE target address receives `value`.
            self._fetch_pass(
                view,
                group,
                addr_to_write,
                tofetch,
                store_value=value,
                store_addr=addr,
            )

    def rmw(self, ds: DataflowLinearizationSet, addr: int, fn) -> int:
        """Read-modify-write = Algorithm 2 then Algorithm 3.

        Algorithm 3 is deliberately *idempotent* (CTStore may commit
        the value and the fetch pass may commit it again); fusing a
        non-idempotent update like ``+= 1`` into the store pass could
        double-apply it when the BIA under-reports dirtiness.  The
        faithful composition is a secure load followed by a secure
        store of the precomputed new value.
        """
        old = self.load(ds, addr)
        self.store(ds, addr, fn(old))
        return old

    # -- batched loads --------------------------------------------------------------------

    def gather(
        self, ds: DataflowLinearizationSet, addrs: Sequence[int]
    ) -> List[int]:
        for a in addrs:
            ds.require_member(a)
        machine = self.machine
        costs = machine.costs
        if machine.slice_hash is not None and machine.config.bia_level == "LLC":
            # On a sliced LLC every CT-op probe is an interconnect
            # message: the batched form's per-request probe *count per
            # group* would leak how many requests fall in each group.
            # Fall back to per-request Algorithm 2, whose probe pattern
            # (one per group per request) is fixed.
            return [self.load(ds, a) for a in addrs]
        machine.execute(costs.bia_call_insts)
        view = self._view(ds)
        by_group: Dict[int, List[int]] = {}
        for i, a in enumerate(addrs):
            by_group.setdefault(view.group_of(a), []).append(i)
        results = [0] * len(addrs)
        offset = addr_math.line_offset(addrs[0]) if addrs else 0
        read = machine.memory.read_word
        for group in view.groups:
            machine.execute(costs.bia_page_insts)
            requests = by_group.get(group, ())
            pending: Dict[int, List[int]] = {}
            if requests:
                # Invisible probes, one CTLoad per request: real data iff
                # the line is resident; a miss returns fake 0 and is
                # corrected from the fetch pass below (its line is
                # guaranteed to be in tofetch).
                group_addrs = [addrs[i] for i in requests]
                data, _existence = machine.ctload_words(
                    group_addrs, costs.gather_elem_insts
                )
                for i, a, word in zip(requests, group_addrs, data):
                    results[i] = word
                    pending.setdefault(a & _LINE_BASE_MASK, []).append(i)
            probe_addr = (group << view.group_bits) + offset
            _data, existence = machine.ctload(probe_addr)
            tofetch = view.bitmask(group) & ~existence
            fetched = self._fetch_pass(
                view, group, probe_addr, tofetch, capture_lines=set(pending)
            )
            for line, indices in pending.items():
                if line in fetched:
                    machine.execute(costs.gather_elem_insts * len(indices))
                    for i in indices:
                        results[i] = read(addrs[i])
        return results

    # -- shared fetch pass -------------------------------------------------------------

    def _fetch_pass(
        self,
        view,
        group: int,
        orig_addr: int,
        tofetch: int,
        capture: Optional[set] = None,
        capture_lines: Optional[set] = None,
        store_value: Optional[int] = None,
        store_addr: Optional[int] = None,
    ) -> Dict[int, int]:
        """Fetch loop shared by Algorithms 2/3 and the batched gather.

        Returns ``{key: word}`` for captured addresses: keys are the
        exact addresses in ``capture`` and/or the line base addresses
        in ``capture_lines`` (gather batching).  An empty fetch set
        issues no access and no instruction, so it returns at once.
        """
        if not tofetch:
            return {}
        machine = self.machine
        fetchset = view.generate_addrs(group, orig_addr, tofetch)
        use_dram = (
            self.fetch_threshold is not None
            and len(fetchset) >= self.fetch_threshold
        )
        start = machine.ds_start_level
        fetch_insts = machine.costs.bia_fetch_elem_insts
        out: Dict[int, int] = {}
        if use_dram:
            # DRAM-bypass fetches (Sec. 6.5) stay scalar: the uncached
            # path touches no cache state there is a bulk kernel for.
            for address in fetchset:
                machine.execute(fetch_insts)
                tmpdata = machine.load_word_uncached(address)
                if capture is not None and address in capture:
                    out[address] = tmpdata
                if capture_lines is not None:
                    line = addr_math.line_base(address)
                    if line in capture_lines:
                        out[line] = tmpdata
                if store_value is not None:
                    if store_addr == address:  # Alg. 3 line 14
                        tmpdata = store_value
                    machine.store_word_uncached(address, tmpdata)
            return out
        if store_value is None:
            words = machine.load_words(
                fetchset, start_level=start, pre_insts=fetch_insts
            )
        else:
            # Alg. 3 lines 12-15 as one fused RMW batch; only the true
            # target address (line 14) receives the new value, every
            # other fetched word is written back unchanged.
            try:
                target_i = fetchset.index(store_addr)
            except ValueError:
                target_i = -1
            words = machine.rmw_words(
                fetchset,
                target_idx=target_i,
                target_fn=lambda current: store_value,
                start_level=start,
                pre_insts=fetch_insts,
            )
        # Captures see the *fetched* word (pre-override), exactly as the
        # scalar loop captured tmpdata before the line-14 compare.
        if capture is not None:
            for address, tmpdata in zip(fetchset, words):
                if address in capture:
                    out[address] = tmpdata
        if capture_lines is not None:
            for address, tmpdata in zip(fetchset, words):
                line = addr_math.line_base(address)
                if line in capture_lines:
                    out[line] = tmpdata
        return out
