"""Dataflow linearization sets (paper Sec. 2.3, 5.1).

A *dataflow linearization set* (DS) is the set of all addresses a
secret-dependent memory access could touch, at cache-line stride
(64 bytes — the threat model's attack granularity).  Constantine-style
tooling computes these at compile time from points-to information; in
this library a workload registers the array (or explicit address set)
behind each secret-dependent access and receives a
:class:`DataflowLinearizationSet` handle.

The class precomputes exactly what Algorithms 2 and 3 need:

* the DS's lines grouped by management group (``M = 12``, i.e. pages,
  by default; Sec. 6.4's LLC variant shrinks ``M`` to the slice-hash
  bit — :meth:`DataflowLinearizationSet.view` produces the grouping
  for any ``M``),
* the per-group **Bitmask** marking which of the group's lines belong
  to the DS (Sec. 5.1's preprocessing), and
* ``generate_addrs`` — the paper's ``generateAddrs``: turn a
  ``tofetch`` bitmap into concrete addresses carrying the original
  access's line offset.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro import params
from repro.errors import ConfigurationError, ProtocolError
from repro.memory import address as addr_math


class DSGroupView:
    """One DS grouped at management granularity ``M = group_bits``.

    For ``group_bits = 12`` groups are pages and bitmasks are 64-bit;
    for smaller ``M`` (Sec. 6.4) each group holds ``2**(M-6)`` lines.
    """

    def __init__(self, ds: "DataflowLinearizationSet", group_bits: int) -> None:
        if group_bits <= params.LINE_BITS:
            raise ConfigurationError(
                f"management granularity M={group_bits} must exceed the "
                f"line bits ({params.LINE_BITS})"
            )
        self.ds = ds
        self.group_bits = group_bits
        self.lines_per_group = 1 << (group_bits - params.LINE_BITS)
        bitmasks: Dict[int, int] = {}
        for line in ds.lines:
            group = addr_math.group_index(line, group_bits)
            bit = addr_math.line_in_group(line, group_bits)
            bitmasks[group] = bitmasks.get(group, 0) | (1 << bit)
        #: group indices covering the DS, in address order
        self.groups: Tuple[int, ...] = tuple(sorted(bitmasks))
        self._bitmasks = bitmasks

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def bitmask(self, group_idx: int) -> int:
        """Bit i set iff line i of the group is in the DS."""
        try:
            return self._bitmasks[group_idx]
        except KeyError:
            raise ProtocolError(
                f"group {group_idx:#x} (M={self.group_bits}) is not "
                f"covered by DS {self.ds.name!r}"
            ) from None

    def group_of(self, addr: int) -> int:
        return addr_math.group_index(addr, self.group_bits)

    def same_group_address(self, group_idx: int, addr: int) -> int:
        """``group | addr[M-1:0]`` — the CT-op target regeneration."""
        return addr_math.same_group_address(group_idx, addr, self.group_bits)

    def generate_addrs(
        self, group_idx: int, orig_addr: int, tofetch: int
    ) -> List[int]:
        """Addresses for every set bit of ``tofetch`` within the group,
        carrying ``orig_addr``'s line offset (the paper's formula)."""
        offset = addr_math.line_offset(orig_addr)
        base = group_idx << self.group_bits
        out: List[int] = []
        bit = 0
        bits = tofetch
        while bits:
            if bits & 1:
                out.append(base + (bit << params.LINE_BITS) + offset)
            bits >>= 1
            bit += 1
        return out

    def lines_in_group(self, group_idx: int) -> List[int]:
        """Line base addresses of the DS's lines within one group."""
        return self.generate_addrs(group_idx, 0, self.bitmask(group_idx))


class DataflowLinearizationSet:
    """An immutable, line-granular set of candidate addresses."""

    def __init__(self, line_addrs: Iterable[int], name: str = "") -> None:
        lines = sorted({addr_math.line_base(a) for a in line_addrs})
        if not lines:
            raise ProtocolError(f"empty dataflow linearization set {name!r}")
        self.name = name
        self.lines: Tuple[int, ...] = tuple(lines)
        self._line_set = frozenset(lines)
        self._views: Dict[int, DSGroupView] = {}
        #: cache-geometry-keyed line -> set-index decompositions and the
        #: line -> position map, lazily built for the bulk sweep kernels
        self._set_index_cache: Dict[Tuple, Tuple[int, ...]] = {}
        self._line_index: Dict[int, int] = {}
        self._page_view = self.view(params.PAGE_BITS)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_range(
        cls, base: int, size_bytes: int, name: str = ""
    ) -> "DataflowLinearizationSet":
        """DS of a contiguous array ``[base, base + size_bytes)``."""
        return cls(addr_math.iter_lines(base, size_bytes), name=name)

    @classmethod
    def from_addresses(
        cls, addrs: Sequence[int], name: str = ""
    ) -> "DataflowLinearizationSet":
        """DS of an explicit (possibly discontiguous) address set."""
        return cls(addrs, name=name)

    @classmethod
    def for_array(
        cls, base: int, size_words: int, name: str = ""
    ) -> "DataflowLinearizationSet":
        """DS covering a whole IR array of 4-byte words at ``base``.

        The declaration the repair pipeline emits for each DS-routed
        array — identical to the executor's default registration, so
        :func:`repro.analysis.intervals.prove_ds_covers` can validate
        the coverage claim against the array's proven index bounds.
        """
        return cls.from_range(base, 4 * size_words, name=name)

    # -- grouping -------------------------------------------------------------

    def view(self, group_bits: int) -> DSGroupView:
        """The DS grouped at management granularity ``M = group_bits``."""
        view = self._views.get(group_bits)
        if view is None:
            view = self._views[group_bits] = DSGroupView(self, group_bits)
        return view

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.lines)

    def __contains__(self, addr: int) -> bool:
        return addr_math.line_base(addr) in self._line_set

    @property
    def pages(self) -> Tuple[int, ...]:
        """Page indices covering the DS (the default M=12 grouping)."""
        return self._page_view.groups

    @property
    def num_pages(self) -> int:
        return self._page_view.num_groups

    @property
    def size_bytes(self) -> int:
        """Footprint at line granularity."""
        return len(self.lines) * params.LINE_SIZE

    def bitmask(self, page_idx: int) -> int:
        """The page's Bitmask (M=12 view)."""
        return self._page_view.bitmask(page_idx)

    def require_member(self, addr: int) -> None:
        """Protocol check: a secure access must stay within its DS."""
        if addr not in self:
            raise ProtocolError(
                f"address {addr:#x} outside DS {self.name!r}; the access "
                "would leak (the DS must cover every possible address)"
            )

    # -- bulk-sweep support ------------------------------------------------------

    def set_indices_for(self, cache) -> Tuple[int, ...]:
        """Per-line set indices in ``cache``, aligned with :attr:`lines`.

        The decomposition depends only on the cache geometry, so it is
        computed once per (DS, geometry) pair and shared by every sweep
        the DS ever performs — the ``line -> (set index, tag)`` cache
        the bulk kernels consume.
        """
        key = cache.geometry_key
        cached = self._set_index_cache.get(key)
        if cached is None:
            cached = self._set_index_cache[key] = tuple(
                cache.set_indices(self.lines)
            )
        return cached

    def line_index(self, line_addr: int) -> int:
        """Position of ``line_addr`` (a line base) within :attr:`lines`."""
        index = self._line_index
        if not index:
            for i, line in enumerate(self.lines):
                index[line] = i
        return index[line_addr]

    # -- the paper's generateAddrs (M=12 view) -----------------------------------

    def generate_addrs(
        self, page_idx: int, orig_addr: int, tofetch: int
    ) -> List[int]:
        """Addresses for every set bit of ``tofetch`` within ``page_idx``.

        Each address is ``page | (i << 6) | orig_addr[5:0]`` so the
        fetched word sits at the same line offset as the original
        access (Sec. 5.1).
        """
        return self._page_view.generate_addrs(page_idx, orig_addr, tofetch)

    def lines_in_page(self, page_idx: int) -> List[int]:
        """Line base addresses of the DS's lines within one page."""
        return self._page_view.lines_in_group(page_idx)
