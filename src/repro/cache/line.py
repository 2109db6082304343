"""Cache line metadata.

The simulator keeps *metadata only* in the caches (valid/dirty/tag);
line data stays authoritative in :class:`repro.memory.backing.MainMemory`.
This "write-through data, write-back metadata" split is exact for
everything the paper measures — hit/miss behaviour, dirty bits,
evictions, write-back traffic — because the threat model (Sec. 2.4)
has no writable shared lines, so no observer can ever see the
difference between buffered and committed data.  The one place where
the distinction matters functionally is CTStore's "write only if
dirty" rule, which :mod:`repro.core.instructions` enforces explicitly
before touching memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, eq=False)
class CacheLine:
    """Metadata for one resident cache line.

    ``line_addr`` is the 64-byte-aligned address of the line; it acts
    as the full tag (index bits included, which makes lookups by
    address trivial and unambiguous across set mappings).

    ``slots=True``: millions of these are allocated per sweep; the
    slot layout removes the per-instance ``__dict__`` (hot-path
    memory/attribute-speed win, same dataclass semantics).
    ``eq=False``: a line is compared by identity, so a set's
    ``ways.index(None)`` skips each occupied way without a Python-level
    ``__eq__`` call; state readers compare ``(line_addr, dirty)`` tuples.
    """

    line_addr: int
    dirty: bool = False

    def clone(self) -> "CacheLine":
        return CacheLine(self.line_addr, self.dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "D" if self.dirty else " "
        return f"<Line {self.line_addr:#x} {flag}>"
