"""Shared-memory-controller contention channel (paper Sec. 2.2).

"An attacker can keep sending requests to a memory controller and
observe the delays of those requests [42].  An increased delay
indicates that there are other parties sending requests to the same
memory controller."

The simulator is sequential, so contention is modelled with a
busy-until clock: every DRAM access occupies the controller for its
service time starting at the requesting actor's current timestamp.  A
probe issued at time ``t`` waits ``max(0, busy_until - t)`` before its
own service — the queueing delay the attacker measures.

The victim's timestamp is its cycle counter; the attacker supplies its
own probe times.  What this exposes is the victim's DRAM traffic
*timing/volume*, which is exactly what control-flow + data-flow
linearization make secret-independent (the paper's Sec. 2.4: "no
leakage can originate from memory/storage units such as ... memory
controllers") — and the tests verify that claim end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.memory.dram import DRAM

#: Width, in victim cycles, of one :func:`victim_traffic_profile` bucket.
PROFILE_WINDOW = 1000.0


@dataclass
class ControllerStats:
    requests: int = 0
    contended: int = 0
    total_queue_delay: float = 0.0
    #: (timestamp, queue_delay) per probe, for attacker analysis
    probe_log: List[Tuple[float, float]] = field(default_factory=list)


class MemoryController:
    """A single controller port in front of a :class:`DRAM` device."""

    def __init__(self, dram: DRAM) -> None:
        self.dram = dram
        self.busy_until: float = 0.0
        self.stats = ControllerStats()

    def _serve(self, now: float, service: float) -> float:
        """Queue + serve one request; returns its total latency."""
        self.stats.requests += 1
        queue_delay = max(0.0, self.busy_until - now)
        if queue_delay > 0:
            self.stats.contended += 1
            self.stats.total_queue_delay += queue_delay
        start = now + queue_delay
        self.busy_until = start + service
        return queue_delay + service

    def read_line(self, line_addr: int, now: float) -> float:
        """Demand read at timestamp ``now``; returns total latency."""
        return self._serve(now, self.dram.read_line(line_addr))

    def write_line(self, line_addr: int, now: float) -> float:
        return self._serve(now, self.dram.write_line(line_addr))

    def probe(self, now: float, line_addr: int = 0) -> float:
        """Attacker probe: measure the controller's queueing delay.

        Issues a real (attacker-owned) read and logs the queue delay
        observed — the [42] measurement primitive.
        """
        service = self.dram.latency
        self.stats.requests += 1
        queue_delay = max(0.0, self.busy_until - now)
        if queue_delay > 0:
            self.stats.contended += 1
            self.stats.total_queue_delay += queue_delay
        self.busy_until = now + queue_delay + service
        self.stats.probe_log.append((now, queue_delay))
        return queue_delay + service


def victim_traffic_profile(machine, run_victim) -> List[int]:
    """DRAM-traffic histogram of a victim run, bucketed by time window.

    Runs ``run_victim(machine)`` while sampling the victim's DRAM
    accesses against its cycle counter — the coarse view a
    controller-contention attacker integrates over time.  Returns the
    access counts per :data:`PROFILE_WINDOW` cycles.
    """
    samples: List[float] = []
    original_read = machine.dram.read_line
    original_write = machine.dram.write_line

    def tap_read(line_addr):
        samples.append(machine.stats.cycles)
        return original_read(line_addr)

    def tap_write(line_addr):
        samples.append(machine.stats.cycles)
        return original_write(line_addr)

    machine.dram.read_line = tap_read
    machine.dram.write_line = tap_write
    try:
        run_victim(machine)
    finally:
        machine.dram.read_line = original_read
        machine.dram.write_line = original_write
    if not samples:
        return []
    buckets = int(max(samples) // PROFILE_WINDOW) + 1
    histogram = [0] * buckets
    for t in samples:
        histogram[int(t // PROFILE_WINDOW)] += 1
    return histogram
