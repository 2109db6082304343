"""Benchmark harness conventions.

Every benchmark regenerates one table or figure of the paper at the
paper's full parameter sweep, prints the same rows/series the paper
reports, and asserts the qualitative shape (who wins, what grows).
Benchmarks run each generator once (``pedantic(rounds=1)``): the
interesting measurement is the simulator's figure-generation cost and
the printed reproduction, not statistical timing of a hot loop.

Run with::

    pytest benchmarks/ --benchmark-only -s

Figure/table generation runs on the parallel experiment engine
(:mod:`repro.experiments.parallel`): ``--engine-jobs N`` fans each
figure's independent simulations across worker processes, and
``--engine-cache DIR`` enables the content-addressed result cache so
repeated benchmark runs (and cross-figure shared baselines) cost one
simulation each.
"""

import pytest

from repro.experiments import parallel


def pytest_addoption(parser):
    parser.addoption(
        "--engine-jobs",
        type=int,
        default=1,
        help="worker processes for the experiment engine",
    )
    parser.addoption(
        "--engine-cache",
        default=None,
        help="directory for the engine's on-disk result cache",
    )


@pytest.fixture(autouse=True, scope="session")
def _engine_config(request):
    """Apply the --engine-* options to the experiment engine."""
    jobs = request.config.getoption("--engine-jobs")
    cache_dir = request.config.getoption("--engine-cache")
    prev = parallel.current_settings()
    parallel.configure(
        jobs=jobs,
        cache=parallel.ResultCache(cache_dir) if cache_dir else None,
    )
    yield
    parallel.configure(**prev._asdict())


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
