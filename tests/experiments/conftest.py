"""Shared fixtures for the experiment-engine tests."""

from __future__ import annotations

import os

import pytest

from repro.experiments.parallel import RunSpec


@pytest.fixture
def break_specs(monkeypatch):
    """Make chosen specs fail by patching :meth:`RunSpec.run`.

    ``break_specs(scheme="ct")`` makes every spec whose fields match
    raise ``RuntimeError``; with ``crash=True`` a matching spec kills
    the pool worker running it with ``os._exit(1)`` instead.  Forked
    pool workers inherit the patch, so the same call drives both the
    in-process executor and the pool.  A crash requested in the test
    process itself raises instead, so a serial run cannot take the
    test runner down.
    """
    parent = os.getpid()
    real = RunSpec.run

    def install(crash: bool = False, **match) -> None:
        def run(self):
            if all(getattr(self, k) == v for k, v in match.items()):
                if crash and os.getpid() != parent:
                    os._exit(1)
                raise RuntimeError(
                    f"injected failure: {self.scheme}/{self.size}"
                )
            return real(self)

        monkeypatch.setattr(RunSpec, "run", run)

    return install
