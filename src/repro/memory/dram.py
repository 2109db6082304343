"""DRAM timing model: closed-row (default) and open-page policies.

The paper's Sec. 6.5 optimization reasons about the memory
controller's *attack granularity*: with a **closed-row policy** every
access pays the same activate+access cost, so an attacker observing
memory-controller timing learns at best which DRAM row (>= page size)
was touched — never which line within it, and never row-locality
patterns.  That constant-time property is what lets the DS fetch loop
bypass the caches safely.

The **open-page policy** is also modelled (``policy="open"``) to make
the alternative's leak concrete: the row buffer holds the last-used
row per bank, so a row-buffer *hit* is faster than a *conflict* — the
classic DRAMA channel [31].  The test suite demonstrates that victim
row locality becomes measurable under the open policy and stays
invisible under the closed one.

Counters are split by requester so Figure 8's ``dram`` series (CT/BIA
ratio ~= 1) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro import params
from repro.errors import ConfigurationError

#: Row buffers the open policy tracks.
BANKS = 8


@dataclass
class DRAMStats:
    """Counters of traffic that left the cache hierarchy."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    rows_touched: set = field(default_factory=set)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.rows_touched.clear()

    def clone(self) -> "DRAMStats":
        return DRAMStats(
            reads=self.reads,
            writes=self.writes,
            row_hits=self.row_hits,
            row_conflicts=self.row_conflicts,
            rows_touched=set(self.rows_touched),
        )

    def load_from(self, other: "DRAMStats") -> None:
        self.reads = other.reads
        self.writes = other.writes
        self.row_hits = other.row_hits
        self.row_conflicts = other.row_conflicts
        self.rows_touched = set(other.rows_touched)


class DRAM:
    """A DRAM device behind the LLC.

    Rows are pages, matching the paper's claim that controller leakage
    granularity is no less than a page.

    Parameters
    ----------
    latency:
        Closed-row access cost (activate + column access + precharge),
        paid by *every* access under the closed policy and by row
        conflicts under the open policy.  An open-policy hit on the
        open row (column access only) costs half of it, rounded up
        (100 for the default 200), so every positive ``latency`` has a
        valid row-hit latency.
    policy:
        ``"closed"`` (the paper's assumption) or ``"open"``, which
        tracks one open row per bank (bank = row index modulo
        :data:`BANKS`).
    """

    def __init__(self, latency: int = 200, policy: str = "closed") -> None:
        if latency <= 0:
            raise ConfigurationError("DRAM latencies must be positive")
        if policy not in ("closed", "open"):
            raise ConfigurationError(
                f"unknown DRAM policy {policy!r}; choices: closed, open"
            )
        self.latency = latency
        self.row_hit_latency = (latency + 1) // 2
        self.policy = policy
        self.stats = DRAMStats()
        self._open_rows: Dict[int, int] = {}  # bank -> open row

    def row_of(self, addr: int) -> int:
        """DRAM row index of ``addr`` — the controller-level leak unit."""
        return addr >> params.PAGE_BITS

    def bank_of(self, addr: int) -> int:
        return self.row_of(addr) % BANKS

    def _access_latency(self, line_addr: int) -> int:
        row = self.row_of(line_addr)
        self.stats.rows_touched.add(row)
        if self.policy == "closed":
            # Every access pays the same — the constant-time property
            # the paper's Sec. 6.5 reasoning rests on.
            return self.latency
        bank = row % BANKS
        if self._open_rows.get(bank) == row:
            self.stats.row_hits += 1
            return self.row_hit_latency
        self.stats.row_conflicts += 1
        self._open_rows[bank] = row
        return self.latency

    def read_line(self, line_addr: int) -> int:
        """Record a line fill from DRAM; returns the access latency."""
        self.stats.reads += 1
        return self._access_latency(line_addr)

    def write_line(self, line_addr: int) -> int:
        """Record a write-back to DRAM; returns the access latency."""
        self.stats.writes += 1
        return self._access_latency(line_addr)

    def open_row(self, bank: int):
        """The row currently open in ``bank`` (open policy only)."""
        return self._open_rows.get(bank)

    # -- state capture / restore (machine fork support) ------------------------

    def capture_state(self):
        """Snapshot counters + open-row buffers (fork/restore support)."""
        return (self.stats.clone(), dict(self._open_rows))

    def restore_state(self, state) -> None:
        stats, open_rows = state
        self.stats.load_from(stats)
        self._open_rows = dict(open_rows)

    def close_rows(self) -> None:
        """Precharge every bank (forget all open-row state).

        Called by :meth:`repro.core.machine.Machine.reset_stats`
        between measurement phases: open-row state is part of the
        *measured* timing channel, so a warm-up phase must not bleed
        row-buffer locality into the measured window.  No-op under the
        closed policy, which never tracks open rows.
        """
        self._open_rows.clear()
