"""The one content-addressed store.

Both engines persist the same thing: a content key in, a pickled
value out.  :class:`Store` is that map, and it serves every user:

* the experiment result cache (``run_many(cache=...)``, the CLI's
  ``.repro_results/``), keyed by :meth:`RunSpec.key
  <repro.experiments.parallel.RunSpec.key>`;
* ctcheck's verdict cache (``ctcheck --vcache DIR``), keyed by
  :meth:`CheckSpec.key <repro.analysis.engine.CheckSpec.key>`.

The store is also what makes a sweep crash-safe: each result is
appended durably the moment it completes, so a re-run after a crash
or a failed batch is served every finished result and simulates only
what is missing.

Record format
-------------

``<dir>/records.jsonl`` holds one JSON object per line::

    {"key": "<sha256>", "value": "<base64 pickle>"}

Values are pickled so they round-trip *bit-identically*: a re-run
served from the store must be indistinguishable from a fresh one, and
JSON would silently turn tuples into lists.

The failure rule
----------------

The same for every user of the store:

* ``put`` appends one line in a single write, then flushes and
  fsyncs before it returns, so a crash can tear at most the line being
  appended.  The *torn tail* is the bytes after the last newline.  It
  is dropped on open and truncated from the file.
* A complete line that fails to decode (JSON, base64 or unpickle)
  raises :class:`~repro.errors.StoreError` naming the file and the
  line, wherever it sits in the file.
* An OS error while opening or appending raises ``StoreError``.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import StoreError

#: File holding a store's records, inside the store directory.
RECORDS_FILE = "records.jsonl"


@dataclass(slots=True)
class StoreStats:
    """Store activity counters.

    ``misses`` counts lookups that found nothing; CI's warm ctcheck
    pass asserts it is zero on an unchanged tree.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0


class Store:
    """Content-addressed ``key -> value`` map, durable in a directory.

    With ``path=None`` the store lives in memory only.  With a path
    the store is the directory holding ``records.jsonl``, which is
    read once, here; the directory itself is created by the first
    ``put``.  No file stays open between calls, so there is nothing
    to close.  One process writes a store: the engines append from
    the parent as the executor delivers each result.  See the module
    docstring for the failure rule.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = None if path is None else str(path)
        self.stats = StoreStats()
        self._memory: Dict[str, Any] = {}
        if self.path is not None:
            self._load()

    @property
    def file(self) -> str:
        return os.path.join(self.path, RECORDS_FILE)

    def _load(self) -> None:
        try:
            with open(self.file, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StoreError(f"cannot open {self.file}: {exc}") from exc
        end = data.rfind(b"\n") + 1
        for number, line in enumerate(data[:end].split(b"\n")[:-1], 1):
            try:
                record = json.loads(line)
                self._memory[record["key"]] = pickle.loads(
                    base64.b64decode(record["value"], validate=True)
                )
            # Unpickling can raise almost any exception type; each one
            # means the same thing here: this complete line is corrupt.
            except Exception as exc:  # noqa: BLE001 - decode boundary
                raise StoreError(
                    f"corrupt record at line {number} of {self.file}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        if end < len(data):
            try:
                os.truncate(self.file, end)
            except OSError as exc:
                raise StoreError(
                    f"cannot truncate the torn tail of {self.file}: {exc}"
                ) from exc

    def get(self, key: str):
        """The value stored under ``key``, or ``None``."""
        value = self._memory.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, durably when on disk.

        A key the store already holds is not appended again.
        """
        if key in self._memory:
            return
        if self.path is not None:
            line = json.dumps({
                "key": key,
                "value": base64.b64encode(
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            }, sort_keys=True) + "\n"
            try:
                os.makedirs(self.path, exist_ok=True)
                with open(self.file, "ab") as fh:
                    fh.write(line.encode("ascii"))
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                raise StoreError(
                    f"cannot append to {self.file}: {exc}"
                ) from exc
        self._memory[key] = value
        self.stats.stores += 1

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def __len__(self) -> int:
        return len(self._memory)

    def keys(self):
        return self._memory.keys()
