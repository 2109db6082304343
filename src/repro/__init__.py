"""repro — reproduction of "Hardware Support for Constant-Time Programming".

(Miao, Kandemir, Zhang, Zhang, Tan, Wu — MICRO 2023.)

The library provides, as importable subsystems:

* :mod:`repro.memory`    — backing memory, address arithmetic, DRAM model;
* :mod:`repro.cache`     — set-associative caches, replacement policies,
  multi-level hierarchy, prefetcher, LLC slice hashing;
* :mod:`repro.core`      — the paper's contribution: the BIA bitmap
  structure, the CTLoad/CTStore micro-ops, and the simulated machine;
* :mod:`repro.ct`        — constant-time programming: dataflow
  linearization sets, the software-CT baseline (Constantine-style), and
  the BIA-based secure load/store algorithms;
* :mod:`repro.attacks`   — Prime+Probe / Flush+Reload / Evict+Time and
  the observable-trace recorder that
  :mod:`repro.analysis.sanitizer` checks trace equivalence with;
* :mod:`repro.workloads` — the five Ghostrider benchmarks and the
  Fig. 9 crypto kernels;
* :mod:`repro.experiments` — generators for every table and figure.

Quick start::

    from repro import build_machine, BIAContext
    from repro.workloads import WORKLOADS

    machine = build_machine("L1D")      # Table-1 machine, BIA in L1d
    ctx = BIAContext(machine)
    result = WORKLOADS["histogram"].run(ctx, 1000, 1)
    print(machine.stats.cycles)
"""

from repro.core.bia import BIA
from repro.core.costs import CostModel
from repro.core.instructions import CTOps
from repro.core.machine import Machine, MachineConfig, build_machine
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext, MitigationContext
from repro.ct.ds import DataflowLinearizationSet
from repro.ct.linearize import SoftwareCTContext
from repro.errors import ConfigurationError, ProtocolError, ReproError

__version__ = "1.0.0"

__all__ = [
    "BIA",
    "BIAContext",
    "CTOps",
    "ConfigurationError",
    "CostModel",
    "DataflowLinearizationSet",
    "InsecureContext",
    "Machine",
    "MachineConfig",
    "MitigationContext",
    "ProtocolError",
    "ReproError",
    "SoftwareCTContext",
    "build_machine",
    "__version__",
]
