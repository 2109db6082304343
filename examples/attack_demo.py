#!/usr/bin/env python3
"""Prime+Probe end to end: steal a secret, then fail against the BIA.

Algorithm 1 of the paper: the attacker primes every L1d set, lets the
victim perform ONE secret-indexed table update, then probes.  A probe
miss marks the set the victim touched — which pins down the secret
index to within a cache line.

Against the insecure victim the attack recovers the secret's set every
time; against the software-CT and BIA victims every round looks
identical regardless of the secret.

Run:  python examples/attack_demo.py
"""

from repro import params
from repro.attacks.prime_probe import PrimeProbeAttacker
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext


def run_round(make_ctx, secret_bin: int):
    """One Prime+Probe round against one histogram-style update."""
    machine = Machine(MachineConfig(l1d_size=4 * 1024, l1d_assoc=2))
    ctx = make_ctx(machine)
    bins = machine.allocator.alloc_words(512)
    for i in range(512):
        machine.memory.write_word(bins + 4 * i, 0)
    ds = ctx.register_ds(bins, 2048, "bins")

    attacker = PrimeProbeAttacker(machine, "L1D")
    result = attacker.attack(
        lambda: ctx.rmw(ds, bins + 4 * secret_bin, lambda v: v + 1),
        sets=range(machine.l1d.num_sets),
    )
    return result.touched_sets()


def main() -> None:
    secrets = (16, 100, 400)
    for name, make_ctx in (
        ("insecure", InsecureContext),
        ("software CT", lambda m: SoftwareCTContext(m)),
        ("BIA (ours)", BIAContext),
    ):
        print(f"victim: {name}")
        seen = set()
        for secret in secrets:
            touched = run_round(make_ctx, secret)
            seen.add(tuple(touched))
            shown = touched if len(touched) <= 8 else f"{len(touched)} sets"
            expected_set = (secret * 4) // params.LINE_SIZE % 32
            print(
                f"  secret bin {secret:>3} (line maps to set {expected_set:>2})"
                f" -> probe misses in: {shown}"
            )
        verdict = "LEAKED" if len(seen) == len(secrets) else "no leak"
        print(f"  attacker's verdict: {verdict}\n")


if __name__ == "__main__":
    main()
