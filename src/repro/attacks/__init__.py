"""Attack substrate: observers, Prime+Probe, Flush+Reload, Evict+Time."""

from repro.attacks.evict_time import EvictTimeAttacker
from repro.attacks.eviction import build_eviction_set, evict_with_set, occupancy_probe
from repro.attacks.flush_reload import FlushReloadAttacker
from repro.attacks.observer import ObservableTraceRecorder
from repro.attacks.prime_probe import PrimeProbeAttacker, ProbeResult

__all__ = [
    "EvictTimeAttacker",
    "build_eviction_set",
    "evict_with_set",
    "occupancy_probe",
    "FlushReloadAttacker",
    "ObservableTraceRecorder",
    "PrimeProbeAttacker",
    "ProbeResult",
]
