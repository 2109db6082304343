#!/usr/bin/env python3
"""Where should the BIA live?  The Sec. 7.3.2 crossover, interactively.

Sweeps dijkstra's vertex count and prints the L1d-BIA vs L2-BIA
overheads.  At V=128 the 64 KiB weight matrix equals the L1d capacity:
the L1d-resident BIA starts losing fetch passes to self-eviction while
the L2-resident BIA (bypassing the L1) keeps the whole DS resident —
the one configuration in Figure 7 where L2 beats L1d.

Run:  python examples/l1_vs_l2_bia.py
"""

from repro.experiments.config import build_context
from repro.experiments.report import format_table
from repro.workloads import WORKLOADS


def main() -> None:
    workload = WORKLOADS["dijkstra"]
    rows = []
    for size in workload.sizes:
        overheads = {}
        base = None
        for scheme in ("insecure", "bia-l1d", "bia-l2"):
            ctx = build_context(scheme)
            workload.run(ctx, size, seed=1)
            cycles = ctx.machine.stats.cycles
            if base is None:
                base = cycles
            overheads[scheme] = cycles / base
        ds_kib = size * size * 4 // 1024
        winner = (
            "L2" if overheads["bia-l2"] < overheads["bia-l1d"] else "L1d"
        )
        rows.append(
            (
                workload.label(size),
                f"{ds_kib} KiB",
                overheads["bia-l1d"],
                overheads["bia-l2"],
                winner,
            )
        )
    print(
        format_table(
            ["workload", "DS size", "L1d BIA", "L2 BIA", "winner"],
            rows,
            title="L1d-resident vs L2-resident BIA (dijkstra)",
        )
    )
    print("\nThe L2 BIA wins exactly when the DS stops fitting in the L1d.")


if __name__ == "__main__":
    main()
