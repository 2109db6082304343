"""The benchmark's traced surface: ``perfbench/layers.py`` wraps program
functions and methods by name and reads some positional arguments, so a
renamed method or a moved argument must fail here, not only in a traced
benchmark run.
"""

from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import RunSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    return layers


def test_traced_runs_reach_the_wrapped_layers(layers):
    wrapped = []

    class RecordingTracer(layers.Tracer):
        """Remembers what each wrapper replaced."""

        def wrap(self, owner, attr, name, units=None):
            wrapped.append((owner, attr, getattr(owner, attr)))
            super().wrap(owner, attr, name, units)

        def wrap_item(self, mapping, key, value):
            wrapped.append((mapping, key, mapping[key]))
            super().wrap_item(mapping, key, value)

    tracer = RecordingTracer()
    try:
        layers.install(tracer)
        parallel.run_many(
            [RunSpec("histogram", 200, "ct"), RunSpec("histogram", 200, "bia-l1d")],
            jobs=1, cache=None,
        )
    finally:
        tracer.remove()
    for name in ("core.sweep", "cache.run_kernel", "ct.bia_ops"):
        assert tracer.layers[name].calls > 0, name
    assert tracer.layers["core.sweep"].units > 0
    assert tracer.layers["cache.run_kernel"].units > 0
    assert wrapped
    for owner, attr, original in wrapped:
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert current is original, (owner, attr)
