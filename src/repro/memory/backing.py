"""Flat backing memory and a bump allocator.

:class:`MainMemory` is the ground-truth storage behind the cache
hierarchy.  It is byte-addressable and sparse (page-granular ``dict``
of ``bytearray``), so workloads can allocate arrays at page-aligned
addresses far apart without paying for the gap.

:class:`Allocator` hands out page-aligned regions, mirroring how the
benchmark programs ``malloc`` their arrays; page alignment matters
because the BIA manages existence/dirtiness at page granularity and
the algorithms group dataflow linearization sets by page index.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable

from repro import params
from repro.errors import AlignmentError, AllocationError, MemoryError_
from repro.memory import address as addr_math

#: The little-endian unsigned codec of one ``params.WORD_SIZE`` word;
#: the mask wraps wide and negative values.
_WORD = struct.Struct("<I")
assert _WORD.size == params.WORD_SIZE
_pack_into = _WORD.pack_into
_unpack_from = _WORD.unpack_from
_WORD_MASK = (1 << (8 * params.WORD_SIZE)) - 1
_WORD_SIZE = params.WORD_SIZE
_ALIGN = params.WORD_SIZE - 1
_PAGE_BITS = params.PAGE_BITS
_PAGE_SIZE = params.PAGE_SIZE
_PAGE_MASK = params.PAGE_SIZE - 1


class MainMemory:
    """Sparse byte-addressable main memory.

    Pages are materialised lazily on first write; reads of untouched
    memory return zero bytes, like freshly mapped anonymous pages.
    Words are little-endian unsigned ``params.WORD_SIZE``-byte values
    at aligned addresses.  A machine snapshot holds a copy of the pages
    (:meth:`copy_pages`), so no page is ever shared between memories.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    # -- raw byte interface -------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        if size < 0:
            raise MemoryError_(f"negative read size {size}")
        out = bytearray(size)
        pos = 0
        while pos < size:
            a = addr + pos
            page = self._pages.get(addr_math.page_index(a))
            off = addr_math.page_offset(a)
            chunk = min(size - pos, params.PAGE_SIZE - off)
            if page is not None:
                out[pos : pos + chunk] = page[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""
        pos = 0
        size = len(data)
        while pos < size:
            a = addr + pos
            idx = addr_math.page_index(a)
            page = self._pages.get(idx)
            if page is None:
                page = self._pages[idx] = bytearray(params.PAGE_SIZE)
            off = addr_math.page_offset(a)
            chunk = min(size - pos, params.PAGE_SIZE - off)
            page[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- typed word interface ----------------------------------------------

    def read_word(self, addr: int) -> int:
        """Read the word at ``addr``.

        Hot path: an aligned word never crosses a page boundary, so the
        read is one dict probe plus one ``struct`` decode straight out
        of the page buffer.
        """
        if addr & _ALIGN:
            raise AlignmentError(
                f"address {addr:#x} not aligned to {params.WORD_SIZE}"
            )
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            return 0
        return _unpack_from(page, addr & _PAGE_MASK)[0]

    def write_word(self, addr: int, value: int) -> None:
        """Write ``value`` modulo ``2**(8*WORD_SIZE)`` as the word at
        ``addr``."""
        if addr & _ALIGN:
            raise AlignmentError(
                f"address {addr:#x} not aligned to {params.WORD_SIZE}"
            )
        idx = addr >> _PAGE_BITS
        page = self._pages.get(idx)
        if page is None:
            page = self._pages[idx] = bytearray(params.PAGE_SIZE)
        _pack_into(page, addr & _PAGE_MASK, value & _WORD_MASK)

    def write_words(self, addrs, values) -> None:
        """:meth:`write_word` for each ``(addr, value)`` pair, in order.

        ``addrs`` and ``values`` are equal-length lists.  A contiguous
        batch (aligned consecutive words, as every array
        initialisation writes) takes :meth:`_write_run`, one
        multi-word ``struct`` pack per in-page stretch.  Any other
        batch, and the rest of a contiguous one from a stretch whose
        values do not all fit a word, takes the per-word loop, which
        resolves the page once per page change and keeps the per-word
        alignment check: a misaligned address raises at the same word
        as the scalar loop, after the earlier words are written.
        """
        n = len(addrs)
        if n > 1 and len(values) == n:
            first = addrs[0]
            if (not first & _ALIGN
                    and addrs[-1] == first + _WORD_SIZE * (n - 1)
                    and addrs == list(range(first, first + _WORD_SIZE * n,
                                            _WORD_SIZE))):
                done = self._write_run(first, values)
                if done == n:
                    return
                addrs = addrs[done:]
                values = values[done:]
        pages = self._pages
        idx = page = None
        for addr, value in zip(addrs, values):
            if addr & _ALIGN:
                raise AlignmentError(
                    f"address {addr:#x} not aligned to {params.WORD_SIZE}"
                )
            if addr >> _PAGE_BITS != idx:
                idx = addr >> _PAGE_BITS
                page = pages.get(idx)
                if page is None:
                    page = pages[idx] = bytearray(params.PAGE_SIZE)
            _pack_into(page, addr & _PAGE_MASK, value & _WORD_MASK)

    def _write_run(self, addr: int, values) -> int:
        """Write ``values`` as consecutive words from the aligned
        ``addr``, one ``struct`` pack per in-page stretch.

        Returns how many words it wrote: all of them, or the words
        before the first stretch holding a value that does not pack as
        an unsigned word (a negative or wide value, which
        :meth:`write_word` wraps, or a non-integer, which it rejects).
        A failed pack writes nothing, so the caller's per-word loop
        resumes at that stretch with nothing of it written.
        """
        pages = self._pages
        n = len(values)
        pos = 0
        while pos < n:
            off = addr & _PAGE_MASK
            k = min(n - pos, (_PAGE_SIZE - off) // _WORD_SIZE)
            try:
                data = struct.pack(f"<{k}I", *values[pos:pos + k])
            except struct.error:
                return pos
            idx = addr >> _PAGE_BITS
            page = pages.get(idx)
            if page is None:
                page = pages[idx] = bytearray(_PAGE_SIZE)
            page[off:off + len(data)] = data
            pos += k
            addr += len(data)
        return n

    # -- introspection ------------------------------------------------------

    def touched_pages(self) -> Iterable[int]:
        """Indices of pages that have been written at least once."""
        return self._pages.keys()

    # -- snapshot / fork support --------------------------------------------

    def copy_pages(self) -> Dict[int, bytearray]:
        """A copy of every page, by page index: a snapshot's memory
        image, which later writes to this memory leave intact."""
        return {idx: bytearray(page) for idx, page in self._pages.items()}

    def install_pages(self, pages: Dict[int, bytearray]) -> None:
        """Make ``pages`` (a :meth:`copy_pages` image) this memory's
        pages.  Later writes go into them, so install a copy of an
        image that must stay intact."""
        self._pages = pages


class Allocator:
    """Page-aligned bump allocator over a :class:`MainMemory`.

    The base address defaults to ``0x10000`` so that address 0 (the
    ``data = 0`` sentinel CTLoad returns on a miss) never aliases a
    real allocation.
    """

    def __init__(self, memory: MainMemory, base: int = 0x10000) -> None:
        if base % params.PAGE_SIZE:
            raise AllocationError(f"allocator base {base:#x} not page aligned")
        self.memory = memory
        self._next = base

    def alloc(self, size: int, name: str = "") -> int:
        """Reserve ``size`` bytes; returns the page-aligned base address."""
        if size <= 0:
            raise AllocationError(f"allocation of {size} bytes ({name!r})")
        base = self._next
        pages = -(-size // params.PAGE_SIZE)
        self._next += pages * params.PAGE_SIZE
        return base

    def alloc_words(self, count: int, name: str = "") -> int:
        """Reserve an array of ``count`` 4-byte words."""
        return self.alloc(count * params.WORD_SIZE, name)
