"""Prime+Probe attacker (paper Sec. 2.1, Algorithm 1, Figure 1).

The attacker shares a cache level with the victim.  It *primes* the
monitored sets by filling every way with its own lines, lets the
victim run, then *probes*: re-accessing its own lines and timing each.
A slow probe (miss) means the victim displaced an attacker line from
that set — revealing which set, and hence part of which address, the
victim touched.

The model gives the attacker its own address range (no shared writable
lines, per the threat model) mapped so it can cover arbitrary sets of
the target cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro import params
from repro.core.machine import Machine

#: Start of the attacker's own address range, far above the victim's
#: heap (:data:`repro.params.HEAP_BASE`).
ATTACKER_BASE = 0x4000_0000


@dataclass
class ProbeResult:
    """Per-set probe outcome for one Prime+Probe round."""

    set_misses: Dict[int, int]  # set index -> number of evicted ways
    probe_latency: Dict[int, int]  # set index -> summed probe latency

    def touched_sets(self) -> List[int]:
        """Sets where the victim observably displaced attacker lines."""
        return sorted(s for s, m in self.set_misses.items() if m > 0)


class PrimeProbeAttacker:
    """Prime+Probe against one level of the victim machine's hierarchy."""

    def __init__(self, machine: Machine, level: str = "L1D") -> None:
        self.machine = machine
        self.level = level
        self.cache = machine.hierarchy.level(level)
        self._primed_lines: Dict[int, List[int]] = {}

    # -- address generation ---------------------------------------------------------

    def _lines_for_set(self, set_idx: int) -> List[int]:
        """Attacker-owned line addresses mapping to ``set_idx``."""
        stride = self.cache.num_sets * params.LINE_SIZE
        first = ATTACKER_BASE + set_idx * params.LINE_SIZE
        return [first + way * stride for way in range(self.cache.assoc)]

    # -- the attack phases -----------------------------------------------------------

    def prime(self, sets: Optional[Iterable[int]] = None) -> None:
        """Fill every way of the monitored sets with attacker lines."""
        if sets is None:
            sets = range(self.cache.num_sets)
        self._primed_lines.clear()
        for set_idx in sets:
            lines = self._lines_for_set(set_idx)
            for line in lines:
                self.machine.attacker_load(line)
            self._primed_lines[set_idx] = lines

    def probe(self) -> ProbeResult:
        """Re-access primed lines; count misses (= victim evictions)."""
        hit_latency = self.cache.latency
        set_misses: Dict[int, int] = {}
        probe_latency: Dict[int, int] = {}
        for set_idx, lines in self._primed_lines.items():
            misses = 0
            total = 0
            for line in lines:
                latency = self.machine.attacker_load(line)
                total += latency
                if latency > hit_latency:
                    misses += 1
            set_misses[set_idx] = misses
            probe_latency[set_idx] = total
        return ProbeResult(set_misses, probe_latency)

    # -- one-shot helper ----------------------------------------------------------------

    def attack(self, victim, sets: Optional[Iterable[int]] = None) -> ProbeResult:
        """Prime, run ``victim()``, probe; returns the probe result."""
        self.prime(sets)
        victim()
        return self.probe()
