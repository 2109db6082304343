"""Architectural constants shared across the whole simulator.

The paper (Sec. 4.1) fixes the geometry this library models:

* cache lines are 64 bytes (the attack granularity, Sec. 2.4), and
* the dataflow-linearization-set management granularity ``M`` is the
  page size, 4096 bytes, i.e. 64 lines per page, so a single BIA entry
  holds one 64-bit existence bitmap and one 64-bit dirtiness bitmap.

Every module that needs line/page/word arithmetic imports these
constants; none takes a line-size, page-size or word-size argument.
Sec. 6.4's smaller ``M`` is the one variable granularity: it reaches
the code as a ``group_bits`` argument (``MachineConfig.management_bits``
and the group helpers of :mod:`repro.memory.address`), never as an
override of these values.
"""

from __future__ import annotations

#: Size of one cache line in bytes (attack granularity; paper Sec. 2.4).
LINE_SIZE = 64

#: log2(LINE_SIZE); number of offset bits within a line.
LINE_BITS = 6

#: ``addr & LINE_BASE_MASK`` is the base of ``addr``'s line.
LINE_BASE_MASK = ~(LINE_SIZE - 1)

#: Size of one page in bytes (DS management granularity M = 12).
PAGE_SIZE = 4096

#: log2(PAGE_SIZE); number of offset bits within a page.
PAGE_BITS = 12

#: Number of cache lines per page = PAGE_SIZE / LINE_SIZE.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: Bitmask over the 64 lines of a page with every bit set.
FULL_PAGE_MASK = (1 << LINES_PER_PAGE) - 1

#: Word size used by the workloads (C ``int``), in bytes.
WORD_SIZE = 4

#: Bits per word: the register width of the IR and its checkers.
WORD_BITS = 8 * WORD_SIZE

#: A word holds a value modulo ``2 ** WORD_BITS``: ``value & WORD_MASK``.
WORD_MASK = (1 << WORD_BITS) - 1

#: Words per cache line.
WORDS_PER_LINE = LINE_SIZE // WORD_SIZE

#: First address the heap allocator hands out, so address 0 (the
#: ``data = 0`` sentinel CTLoad returns on a miss) never aliases an
#: allocation.  Page aligned.
HEAP_BASE = 0x10000

assert LINE_SIZE == 1 << LINE_BITS
assert PAGE_SIZE == 1 << PAGE_BITS
assert LINES_PER_PAGE == 64, "paper's BIA entries are 64-bit bitmaps"
assert HEAP_BASE % PAGE_SIZE == 0
