"""On-disk verdict cache for the verification engine.

The analysis pipeline is referentially transparent: one checker run is
fully determined by (the canonical IR of the program or the workload's
identity, the checker configuration, and the toolchain version).  The
verdict cache content-addresses each :class:`~repro.analysis.engine.
CheckOutput` by exactly that triple — the key is computed by
:meth:`repro.analysis.engine.CheckSpec.key` — so an unchanged target
is served its findings bit-identically without re-exploring or
re-solving anything, and *any* relevant change (one mutated IR
statement, a different ``--spec-window``, a version bump) produces a
different key and forces a genuine re-check.  Invalidation is
structural, never heuristic: stale entries are simply never looked up
again.

Storage follows :mod:`repro.experiments.store`: one append-only JSONL
file, one fsync'd line per verdict, payloads base64-pickled for
bit-identical round-trips.  A torn final line (crash mid-append) is
ignored on read; unreadable payloads are treated as misses and
rewritten by the re-check.  With ``path=None`` the cache is
memory-only (useful for intra-run sharing and tests).
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import dataclass
from typing import Dict, Optional

#: File the verdict lines are appended to, inside the cache directory.
SEGMENT_NAME = "verdicts.jsonl"


@dataclass(slots=True)
class VCacheStats:
    """Cache activity counters.

    ``misses`` counts targets that had to be genuinely re-checked; CI's
    warm-cache pass asserts it is zero on an unchanged tree.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }


class VerdictCache:
    """Content-addressed ``key -> CheckOutput`` store for the engine.

    :func:`repro.analysis.engine.run_check_specs` hands ``put`` to the
    batch executor as its delivery hook, which salvages every completed
    check into the cache the moment it finishes, so a crashed or
    interrupted run still keeps the verdicts it produced.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._memory: Dict[str, object] = {}
        self._loaded = path is None
        self.stats = VCacheStats()

    # -- persistence -------------------------------------------------------

    def _segment(self) -> str:
        assert self.path is not None
        return os.path.join(self.path, SEGMENT_NAME)

    def _load(self) -> None:
        """Read every durable verdict once, tolerating a torn tail."""
        self._loaded = True
        try:
            fh = open(self._segment(), "r", encoding="utf-8")
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    payload = pickle.loads(
                        base64.b64decode(record["payload"])
                    )
                except (ValueError, KeyError, TypeError, EOFError,
                        pickle.UnpicklingError, AttributeError):
                    # A torn or corrupt line: everything before it is
                    # intact; the damaged entry is a miss and will be
                    # re-checked and re-appended.
                    continue
                self._memory[record["key"]] = payload

    def get(self, key: str):
        """The cached output for ``key``, or ``None`` (counted a miss)."""
        if not self._loaded:
            self._load()
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        return None

    def put(self, key: str, output: object) -> None:
        """Store one verdict, durably when the cache is on disk."""
        self._memory[key] = output
        self.stats.stores += 1
        if self.path is None:
            return
        record = {
            "key": key,
            "payload": base64.b64encode(
                pickle.dumps(output, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }
        try:
            os.makedirs(self.path, exist_ok=True)
            with open(self._segment(), "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:  # pragma: no cover - disk full etc.
            pass

    def __contains__(self, key: str) -> bool:
        if not self._loaded:
            self._load()
        return key in self._memory

    def __len__(self) -> int:
        if not self._loaded:
            self._load()
        return len(self._memory)

    def clear(self) -> None:
        self._memory.clear()
        self._loaded = self.path is None
        if self.path is not None:
            try:
                os.remove(self._segment())
            except OSError:
                pass
