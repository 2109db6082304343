"""Experiment configuration: Table-1 presets and scheme factories.

A *scheme* is a named (machine, mitigation-context) recipe:

==============  ============================================================
``insecure``    unmitigated baseline (the denominator of every figure)
``ct``          software constant-time programming with avx2-style sweeps
                (Constantine [9] — the state of the art the paper compares
                against)
``ct-scalar``   the scalar sweep (Figure 2's second curve)
``bia-l1d``     the paper's proposal, BIA attached to the L1d cache
``bia-l2``      the paper's proposal, BIA attached to the L2 cache
``bia-llc``     Sec. 6.4: BIA in a sliced LLC (Skylake-X-like LS_Hash=12)
==============  ============================================================

Every experiment builds a *fresh* machine per run so that runs are
independent and comparable.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext, MitigationContext
from repro.ct.linearize import SoftwareCTContext
from repro.errors import ConfigurationError

#: Scheme names in the order figures print them.
SCHEMES = ("insecure", "ct", "ct-scalar", "bia-l1d", "bia-l2", "bia-llc")

#: The three series of Figure 7, in the paper's legend order.
FIG7_SCHEMES = ("bia-l1d", "bia-l2", "ct")


def default_config(bia_level: str = "L1D", **overrides) -> MachineConfig:
    """The paper's Table-1 machine."""
    return MachineConfig(bia_level=bia_level, **overrides)


def scheme_config(
    scheme: str, config: Optional[MachineConfig] = None
) -> MachineConfig:
    """The machine configuration ``build_context`` uses for ``scheme``."""
    if config is not None:
        return config
    if scheme in ("insecure", "ct", "ct-scalar", "bia-l1d"):
        return default_config("L1D")
    if scheme == "bia-l2":
        return default_config("L2")
    if scheme == "bia-llc":
        # Sec. 6.4: Skylake-X-like sliced LLC (LS_Hash = 12, M = 12)
        return default_config("LLC", llc_slices=8, ls_hash=12)
    raise ConfigurationError(
        f"unknown scheme {scheme!r}; choices: {SCHEMES}"
    )


def build_context(
    scheme: str,
    config: Optional[MachineConfig] = None,
    fetch_threshold: Optional[int] = None,
    machine: Optional[Machine] = None,
) -> MitigationContext:
    """Build a fresh machine + mitigation context for ``scheme``.

    ``machine`` optionally supplies an already-built machine to wrap
    (the warm-start pools of :mod:`repro.experiments.parallel` restore
    a pristine snapshot onto a pooled machine instead of paying for
    construction); its configuration must match what the scheme would
    have built.
    """
    if machine is None:
        machine = Machine(scheme_config(scheme, config))
    if scheme == "insecure":
        return InsecureContext(machine)
    if scheme == "ct":
        return SoftwareCTContext(machine, simd=True)
    if scheme == "ct-scalar":
        return SoftwareCTContext(machine, simd=False)
    if scheme in ("bia-l1d", "bia-l2", "bia-llc"):
        return BIAContext(machine, fetch_threshold=fetch_threshold)
    raise ConfigurationError(
        f"unknown scheme {scheme!r}; choices: {SCHEMES}"
    )


def context_factories() -> Dict[str, Callable[[], MitigationContext]]:
    """Zero-argument factories for each scheme (test convenience)."""
    return {name: (lambda n=name: build_context(n)) for name in SCHEMES}
