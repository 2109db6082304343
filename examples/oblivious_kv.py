#!/usr/bin/env python3
"""An oblivious key-value store: the intro's cloud scenario, end to end.

A multi-tenant service looks up client records; *which* record is
queried is the secret (think medical-record IDs on shared hardware).
The store performs every query through a mitigation context — swap
the context, swap the defence.

The demo measures query cost under each scheme and then verifies the
headline property directly: under the BIA, two different secret
queries leave byte-identical observable cache traces.

Run:  python examples/oblivious_kv.py
"""

import hashlib

from repro.attacks.observer import ObservableTraceRecorder
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.experiments.report import format_table
from repro.workloads.kvstore import build_demo_store

N_RECORDS = 2000
N_QUERIES = 10


def measure(ctx_cls):
    machine = Machine(MachineConfig())
    store, pairs = build_demo_store(ctx_cls(machine), N_RECORDS)
    queried = [pairs[i][0] for i in range(0, N_RECORDS, N_RECORDS // N_QUERIES)]
    machine.reset_stats()
    results = store.get_many(queried[:N_QUERIES])
    expected = [
        dict(pairs)[key] for key in queried[:N_QUERIES]
    ]
    assert results == expected
    return machine.stats.cycles


def trace_of_query(query_index: int) -> str:
    """SHA-256 over what an attacker sees of one query: every cache
    event and the final state of every level."""
    machine = Machine(MachineConfig())
    store, pairs = build_demo_store(BIAContext(machine), N_RECORDS)
    recorder = ObservableTraceRecorder()
    for level in machine.hierarchy.levels:
        recorder.attach(level)
    store.get(pairs[query_index][0])
    view = (recorder.events, recorder.final_state_digest())
    return hashlib.sha256(repr(view).encode()).hexdigest()


def main() -> None:
    rows = []
    base = None
    for name, ctx_cls in (
        ("insecure", InsecureContext),
        ("software CT", SoftwareCTContext),
        ("BIA (ours)", BIAContext),
    ):
        cycles = measure(ctx_cls)
        if base is None:
            base = cycles
        rows.append((name, cycles / N_QUERIES, cycles / base))
    print(
        format_table(
            ["scheme", "cycles / query", "overhead"],
            rows,
            title=f"oblivious KV store: {N_RECORDS} records, {N_QUERIES} queries",
        )
    )

    digest_a = trace_of_query(17)
    digest_b = trace_of_query(1776)
    print(
        "\nobservable-trace digests for two different secret queries:\n"
        f"  record #17   -> {digest_a[:32]}...\n"
        f"  record #1776 -> {digest_b[:32]}...\n"
        f"  identical    -> {digest_a == digest_b}"
    )


if __name__ == "__main__":
    main()
