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

#: Little-endian unsigned word codecs by size.  Words are 1, 2, 4 or 8
#: bytes (the machine issues 4, tests also use 8); any other size is
#: rejected at the boundary.
_CODECS: Dict[int, struct.Struct] = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}
#: ``(pack_into, mask)`` per size; the mask wraps wide and negative values.
_PACKERS = {
    size: (codec.pack_into, (1 << (8 * size)) - 1)
    for size, codec in _CODECS.items()
}
_BAD_SIZE = "access size {} is not a 1-, 2-, 4- or 8-byte word"
_PAGE_BITS = params.PAGE_BITS
_PAGE_MASK = params.PAGE_SIZE - 1


class MainMemory:
    """Sparse byte-addressable main memory.

    Pages are materialised lazily on first write; reads of untouched
    memory return zero bytes, like freshly mapped anonymous pages.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: page indices shared (copy-on-write) with a machine snapshot
        #: or fork; a writer must replace the page before mutating it.
        self._frozen: set = set()

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
            elif idx in self._frozen:
                page = self._pages[idx] = bytearray(page)
                self._frozen.discard(idx)
            off = addr_math.page_offset(a)
            chunk = min(size - pos, params.PAGE_SIZE - off)
            page[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- typed word interface ----------------------------------------------

    def read_word(self, addr: int, size: int = params.WORD_SIZE) -> int:
        """Read an unsigned little-endian integer of ``size`` bytes.

        Hot path: an aligned word of at most 8 bytes never crosses a
        page boundary, so the read is one dict probe plus one
        ``struct`` decode straight out of the page buffer.
        """
        codec = _CODECS.get(size)
        if codec is None:
            raise AlignmentError(_BAD_SIZE.format(size))
        if addr & (size - 1):
            raise AlignmentError(f"address {addr:#x} not aligned to {size}")
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            return 0
        return codec.unpack_from(page, addr & _PAGE_MASK)[0]

    def write_word(
        self, addr: int, value: int, size: int = params.WORD_SIZE
    ) -> None:
        """Write ``value`` modulo ``2**(8*size)`` as a little-endian word."""
        packer = _PACKERS.get(size)
        if packer is None:
            raise AlignmentError(_BAD_SIZE.format(size))
        if addr & (size - 1):
            raise AlignmentError(f"address {addr:#x} not aligned to {size}")
        idx = addr >> _PAGE_BITS
        page = self._pages.get(idx)
        if page is None:
            page = self._pages[idx] = bytearray(params.PAGE_SIZE)
        elif self._frozen and idx in self._frozen:
            # Copy-on-write: this page is shared with a snapshot.
            page = self._pages[idx] = bytearray(page)
            self._frozen.discard(idx)
        pack_into, mask = packer
        pack_into(page, addr & _PAGE_MASK, value & mask)

    def write_words(
        self, addrs, values, size: int = params.WORD_SIZE
    ) -> None:
        """:meth:`write_word` for each ``(addr, value)`` pair, in order.

        Resolves the codec once per call and the page once per page
        change, keeping the per-word alignment check and copy-on-write.
        A misaligned address raises at the same word as the scalar
        loop, after the earlier words are written; a bad ``size``
        raises before any write.
        """
        packer = _PACKERS.get(size)
        if packer is None:
            raise AlignmentError(_BAD_SIZE.format(size))
        pack_into, mask = packer
        align = size - 1
        pages = self._pages
        frozen = self._frozen
        idx = page = None
        for addr, value in zip(addrs, values):
            if addr & align:
                raise AlignmentError(f"address {addr:#x} not aligned to {size}")
            if addr >> _PAGE_BITS != idx:
                idx = addr >> _PAGE_BITS
                page = pages.get(idx)
                if page is None:
                    page = pages[idx] = bytearray(params.PAGE_SIZE)
                elif frozen and idx in frozen:
                    page = pages[idx] = bytearray(page)
                    frozen.discard(idx)
            pack_into(page, addr & _PAGE_MASK, value & mask)

    def read_line(self, line_addr: int) -> bytes:
        """Read the whole 64-byte line starting at ``line_addr``."""
        addr_math.check_aligned(line_addr, params.LINE_SIZE)
        return self.read(line_addr, params.LINE_SIZE)

    def write_line(self, line_addr: int, data: bytes) -> None:
        """Write a whole 64-byte line (used by cache write-back)."""
        addr_math.check_aligned(line_addr, params.LINE_SIZE)
        if len(data) != params.LINE_SIZE:
            raise MemoryError_(
                f"line write of {len(data)} bytes (expected {params.LINE_SIZE})"
            )
        self.write(line_addr, data)

    # -- introspection ------------------------------------------------------

    def touched_pages(self) -> Iterable[int]:
        """Indices of pages that have been written at least once."""
        return self._pages.keys()

    # -- snapshot / fork support (copy-on-write) -----------------------------------

    def share_pages(self) -> Dict[int, bytearray]:
        """Freeze the current pages for sharing with a snapshot.

        Marks every live page copy-on-write in *this* memory and
        returns a shallow copy of the page table.  The caller hands the
        returned dict to :meth:`adopt_pages` on another (or the same)
        memory; neither side ever mutates a shared page in place, so
        the snapshot stays byte-exact no matter who writes afterwards.
        """
        self._frozen.update(self._pages)
        return dict(self._pages)

    def adopt_pages(self, pages: Dict[int, bytearray]) -> None:
        """Install a page table from :meth:`share_pages` (all CoW)."""
        self._pages = dict(pages)
        self._frozen = set(pages)


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
