#!/usr/bin/env python3
"""Constant-time AES-128 on the simulated machine.

Runs the library's real one-T-table AES (validated against FIPS-197)
with every T-table/S-box lookup routed through a mitigation context,
and compares the cost of software CT vs the BIA — one bar pair of
Figure 9.  Crypto tables are tiny (the whole T-table fits one BIA
entry), which is exactly the regime where the paper says software CT
remains competitive (Sec. 6.3).

Run:  python examples/aes_ttable.py
"""

from repro.experiments.config import build_context
from repro.experiments.report import format_table
from repro.workloads.crypto import AES_BLOCKS, run_aes


def main() -> None:
    rows = []
    outputs = set()
    base = None
    for scheme in ("insecure", "ct", "bia-l1d"):
        ctx = build_context(scheme)
        ciphertext = run_aes(ctx, seed=1)
        outputs.add(ciphertext)
        cycles = ctx.machine.stats.cycles
        if base is None:
            base = cycles
        rows.append((scheme, cycles, cycles / base))
    assert len(outputs) == 1, "every scheme must encrypt identically"
    print(
        format_table(
            ["scheme", "cycles", "overhead"],
            rows,
            title=f"AES-128, {AES_BLOCKS} blocks, one-T-table formulation",
        )
    )
    print(f"\nciphertext: {outputs.pop().hex()}")
    print("(identical under every mitigation — functional proof of Sec. 5.2)")


if __name__ == "__main__":
    main()
