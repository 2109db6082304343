"""Address arithmetic: lines, pages, offsets, and the paper's bit fields.

The paper's algorithms slice a 64-bit address into three fields::

    | 63 ............. 12 | 11 ....... 6 | 5 ........ 0 |
    |     page index      |  line index  | line offset  |

``generateAddrs`` (Sec. 5.1) rebuilds an address as
``page[63:12] | (i << 6) | addr[5:0]``; the helpers here implement each
of those pieces so both the software algorithms and the hardware models
share one definition.

All helpers are pure functions of ``int`` addresses.  The line and page
helpers use the fixed geometry of :mod:`repro.params`.  The group
helpers take the DS management granularity ``M`` as ``group_bits``:
``M = 12`` is the page, and Sec. 6.4's LLC-resident BIA uses a smaller
``M``.
"""

from __future__ import annotations

from repro.params import LINE_BASE_MASK, LINE_BITS, LINE_SIZE, PAGE_BITS, PAGE_SIZE


def line_index(addr: int) -> int:
    """Global index of the cache line containing ``addr``."""
    return addr >> LINE_BITS


def line_base(addr: int) -> int:
    """Address of the first byte of the line containing ``addr``."""
    return addr & LINE_BASE_MASK


def line_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its cache line (bits [5:0])."""
    return addr % LINE_SIZE


def page_index(addr: int) -> int:
    """Global index of the page containing ``addr`` (bits [63:12])."""
    return addr >> PAGE_BITS


def page_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its page (bits [11:0])."""
    return addr % PAGE_SIZE


def group_index(addr: int, group_bits: int) -> int:
    """DS-management-group index of ``addr`` for granularity ``M``.

    The paper's default is ``M = 12`` (page granularity); Sec. 6.4's
    LLC-resident BIA shrinks ``M`` to ``LS_Hash`` when ``6 < LS_Hash <
    12`` so each group stays within one LLC slice.
    """
    return addr >> group_bits


def same_group_address(group_idx: int, addr: int, group_bits: int) -> int:
    """``group | addr[M-1:0]``: addr's group offset relocated into group_idx.

    Used by Algorithms 2 and 3 to regenerate the CTLoad/CTStore target
    for each group of the DS (line 4 of Alg. 2 / line 5 of Alg. 3).
    """
    return (group_idx << group_bits) + (addr & ((1 << group_bits) - 1))


def line_in_group(addr: int, group_bits: int) -> int:
    """Index of ``addr``'s line within its group (the BIA bitmap bit)."""
    return (addr >> LINE_BITS) & ((1 << (group_bits - LINE_BITS)) - 1)


def iter_lines(base: int, size: int):
    """Yield the base address of every line overlapping [base, base+size).

    Convenience used when building dataflow linearization sets with the
    cache-line stride of the paper's threat model.
    """
    if size <= 0:
        return
    first = line_base(base)
    last = line_base(base + size - 1)
    yield from range(first, last + LINE_SIZE, LINE_SIZE)
