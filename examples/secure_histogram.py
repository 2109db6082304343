#!/usr/bin/env python3
"""The paper's running example: histogram under every mitigation.

Runs the histogram workload (Sec. 2.3/3.1) at a chosen bin count under
the insecure baseline, software constant-time programming (scalar and
avx2-style), and the BIA design (L1d- and L2-resident), then prints
the execution-time overheads — one row of Figure 7(b).

Run:  python examples/secure_histogram.py [bins]
"""

import sys

from repro.experiments.config import build_context
from repro.experiments.report import format_table
from repro.workloads import WORKLOADS


def main() -> None:
    bins = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    workload = WORKLOADS["histogram"]

    rows = []
    base_cycles = None
    for scheme in ("insecure", "ct-scalar", "ct", "bia-l1d", "bia-l2"):
        ctx = build_context(scheme)
        output = workload.run(ctx, bins, seed=1)
        cycles = ctx.machine.stats.cycles
        if base_cycles is None:
            base_cycles = cycles
        rows.append(
            (
                scheme,
                cycles,
                cycles / base_cycles,
                ctx.machine.stats.l1d_refs,
            )
        )
        checksum = sum(output)
    print(
        format_table(
            ["scheme", "cycles", "overhead", "L1d refs"],
            rows,
            title=f"histogram with {bins} bins ({workload.label(bins)})",
        )
    )
    print(f"\n(bin-count checksum: {checksum} — identical for every scheme)")


if __name__ == "__main__":
    main()
