"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any simulator failure.  Subclasses
distinguish configuration mistakes from runtime protocol violations
(e.g. a workload touching unallocated memory, or a security-context
misuse that would silently break the constant-time guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulator component was constructed with invalid parameters.

    Examples: a cache whose size is not divisible by (associativity x
    line size), a BIA with a non-power-of-two entry count, or latencies
    that are not positive.
    """


class MemoryError_(ReproError):
    """An access touched memory outside any allocation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which means something entirely different.
    """


class AlignmentError(MemoryError_):
    """A typed access (e.g. a 4-byte word) was not naturally aligned."""


class AllocationError(MemoryError_):
    """The allocator could not satisfy a request (exhausted or invalid)."""


class StoreError(ReproError):
    """A store is unusable.

    Raised by :mod:`repro.experiments.store`, the same way for the
    result cache and the verdict cache: for a complete record that
    fails to decode, wherever it sits in the file (a torn *trailing*
    record is dropped instead), and for an OS error while opening or
    appending.  Both command lines print it as one ``error:`` line and
    exit with status 2.
    """


class TransformError(ReproError):
    """An IR rewrite (:mod:`repro.lang.transforms`) cannot apply.

    Examples: the addressed statement is not of the kind the transform
    handles, a loop sits inside a branch-linearization region, or a
    trip-count pad was requested with a negative bound.  The repair
    driver turns these into *irreparable* verdicts instead of crashing.
    """


class ProtocolError(ReproError):
    """A component was driven in a way its protocol forbids.

    Example: issuing a CTStore for an address whose page is not covered
    by any registered dataflow linearization set, or asking a
    mitigation context to load through a DS that does not contain the
    requested address.
    """


@dataclass
class SpecFailure:
    """One spec's failure inside an engine batch.

    Collected by :func:`repro.experiments.parallel.execute` while the
    rest of the batch keeps running; the full list rides on the
    :class:`EngineError` raised once the batch drains.

    ``kind`` distinguishes the failure mode: ``"error"`` (the spec
    raised) or ``"crash"`` (a worker process died before the spec's
    result was delivered).
    """

    spec: Any
    key: str
    kind: str
    error: Optional[str] = None

    def describe(self) -> str:
        detail = f": {self.error}" if self.error else ""
        return f"{self.spec!r} [{self.kind}]{detail}"


class EngineError(ReproError):
    """A batch finished, but some specs failed.

    The engine is salvage-first: every spec that *did* complete has
    already been stored in the result cache before this is raised, so a
    re-run only re-simulates the failures.  The exception carries the
    structured per-spec failure log:

    ``failures``
        ``List[SpecFailure]`` — exactly the specs that did not produce
        a result, in submission order, each with its failure kind and
        error text.
    ``completed``
        ``Dict[key, result]`` — the salvaged results of this batch
        (keyed by spec content hash), for callers that want partial
        output instead of a re-run.
    """

    def __init__(
        self,
        failures: List[SpecFailure],
        completed: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.failures = list(failures)
        self.completed = dict(completed or {})
        self.total = len(self.failures) + len(self.completed)
        lines = "\n".join(f"  - {f.describe()}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)}/{self.total} spec(s) failed "
            f"({len(self.completed)} result(s) salvaged):\n{lines}"
        )

