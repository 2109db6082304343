"""Benchmark harness conventions.

The benchmarks here cover what the paper's figures do not: the
Sec. 6.1, 6.4 and 6.5 ablations, the Path ORAM comparison, the
oblivious KV store and the mini-Constantine toolchain.  Each prints
its table and asserts the qualitative shape (who wins, what leaks).
The paper's own tables and figures are regenerated, and their claims
checked, by ``python -m repro.experiments`` (see
:mod:`repro.experiments.claims`).

Benchmarks run each generator once (``pedantic(rounds=1)``): the
interesting measurement is the simulator's generation cost and the
printed table, not statistical timing of a hot loop.

Run with::

    pytest benchmarks/ --benchmark-only -s

or, as ``scripts/ci.sh`` does, as plain tests::

    pytest benchmarks/ -q --benchmark-disable
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
