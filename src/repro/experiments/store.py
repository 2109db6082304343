"""The one content-addressed store, sweep manifests, and resume.

Both engines persist the same thing: a content key in, a pickled
value out.  :class:`Store` is that map, and it serves every user:

* the experiment result cache (``run_many(cache=...)``, the CLI's
  ``.repro_results/``), keyed by :meth:`RunSpec.key
  <repro.experiments.parallel.RunSpec.key>`;
* a run directory's results (:class:`RunDirectory`, a :class:`Store`
  plus a :class:`SweepManifest`);
* ctcheck's verdict cache (``ctcheck --vcache DIR``), keyed by
  :meth:`CheckSpec.key <repro.analysis.engine.CheckSpec.key>`.

On top of it sit :func:`resume`, which re-enqueues a run directory's
manifest and simulates only the specs not yet stored, and
:func:`served_from`, which points the engine defaults at a run
directory, read-only and offline by default.

Record format
-------------

``<dir>/records.jsonl`` holds one JSON object per line::

    {"key": "<sha256>", "value": "<base64 pickle>"}

Values are pickled so they round-trip *bit-identically*: resumed
sweeps must be indistinguishable from uninterrupted ones, and JSON
would silently turn tuples into lists.

The failure rule
----------------

The same for every user of the store:

* ``put`` appends one line in a single write, then flushes and
  fsyncs before it returns, so a crash can tear at most the line being
  appended.  The *torn tail* is the bytes after the last newline.  It
  is dropped on open, and a writable open truncates it from the file.
  A read-only open never modifies the file.
* A complete line that fails to decode (JSON, base64 or unpickle)
  raises :class:`~repro.errors.StoreError` naming the file and the
  line, wherever it sits in the file.
* An OS error while opening or appending raises ``StoreError``.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.core.costs import CostModel
from repro.core.machine import MachineConfig
from repro.errors import StoreError

#: File holding a store's records, inside the store directory.
RECORDS_FILE = "records.jsonl"

#: Manifest file name inside a run directory.
MANIFEST_FILE = "manifest.json"


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


# -- spec (de)serialization ----------------------------------------------------


def spec_to_dict(spec) -> Dict[str, Any]:
    """JSON-serializable form of a :class:`RunSpec` (config included)."""
    return {
        "workload": spec.workload,
        "size": spec.size,
        "scheme": spec.scheme,
        "seed": spec.seed,
        "kind": spec.kind,
        "fetch_threshold": spec.fetch_threshold,
        "config": (
            None if spec.config is None else dataclasses.asdict(spec.config)
        ),
    }


def spec_from_dict(payload: Dict[str, Any]):
    """Rebuild a :class:`RunSpec` (content-hash-identical) from JSON."""
    from repro.experiments.parallel import RunSpec

    fields = dict(payload)
    config = fields.pop("config", None)
    if config is not None:
        config = dict(config)
        costs = config.pop("costs", None)
        if costs is not None:
            config["costs"] = CostModel(**costs)
        config = MachineConfig(**config)
    return RunSpec(config=config, **fields)


# -- the store -----------------------------------------------------------------


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
    ``put``.  ``readonly=True`` serves an existing directory without
    ever writing to it.  No file stays open between calls, so there
    is nothing to close.  One process writes a store: the engines
    append from the parent as the executor delivers each result.  See
    the module docstring for the failure rule.
    """

    def __init__(self, path: Optional[str] = None,
                 readonly: bool = False) -> None:
        self.path = None if path is None else str(path)
        self.readonly = bool(readonly)
        self.stats = StoreStats()
        self._memory: Dict[str, Any] = {}
        if self.path is not None:
            self._load()

    @property
    def file(self) -> str:
        return os.path.join(self.path, RECORDS_FILE)

    def _load(self) -> None:
        if self.readonly and not os.path.isdir(self.path):
            raise StoreError(f"no store at {self.path}")
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
        if end < len(data) and not self.readonly:
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
        if self.readonly:
            raise StoreError(f"store {self.path} is read-only")
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


# -- sweep manifest ------------------------------------------------------------


class SweepManifest:
    """The materialized spec list + settings snapshot of one sweep.

    Written atomically (tmp-file + rename) *before* the engine starts
    executing, and extended the same way when later batches join the
    run directory — so after any crash the manifest names exactly the
    specs the sweep owes, in submission order.
    """

    def __init__(self, run_dir: str) -> None:
        self.path = os.path.join(str(run_dir), MANIFEST_FILE)

    def exists(self) -> bool:
        return os.path.isfile(self.path)

    def read(self) -> Dict[str, Any]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise StoreError(f"no sweep manifest at {self.path}") from exc
        except ValueError as exc:
            raise StoreError(
                f"corrupt sweep manifest at {self.path}: {exc}"
            ) from exc

    def specs(self):
        """The manifest's specs, in original submission order."""
        return [
            spec_from_dict(entry["spec"]) for entry in self.read()["specs"]
        ]

    def keys(self) -> List[str]:
        return [entry["key"] for entry in self.read()["specs"]]

    def settings(self) -> Dict[str, Any]:
        return dict(self.read().get("settings", {}))

    def register(
        self,
        pairs: Sequence[Tuple[Any, str]],
        settings: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Add ``(spec, key)`` pairs (dedup by key); returns new count.

        The rewrite is atomic: a crash mid-register leaves the previous
        manifest intact.
        """
        if self.exists():
            data = self.read()
        else:
            data = {
                "format": 1,
                "version": repro.__version__,
                "created": time.time(),
                "settings": {},
                "specs": [],
            }
        known = {entry["key"] for entry in data["specs"]}
        added = 0
        for spec, key in pairs:
            if key in known:
                continue
            known.add(key)
            data["specs"].append({"key": key, "spec": spec_to_dict(spec)})
            added += 1
        if settings:
            data["settings"].update(settings)
        if added or settings or not os.path.isfile(self.path):
            run_dir = os.path.dirname(self.path) or "."
            tmp = self.path + ".tmp"
            try:
                os.makedirs(run_dir, exist_ok=True)
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(data, fh, sort_keys=True)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except OSError as exc:
                raise StoreError(
                    f"cannot write sweep manifest {self.path}: {exc}"
                ) from exc
            _fsync_dir(run_dir)
        return added


# -- run directory -------------------------------------------------------------


class RunDirectory(Store):
    """One sweep's durable home: a :class:`Store` plus its manifest.

    Layout::

        RUNDIR/
          manifest.json    # spec list + settings snapshot
          records.jsonl    # the store: one result per line

    Pass an instance as ``run_many(..., store=rd)`` (or
    ``configure(store=rd)``): specs are registered in the manifest
    before the first run, results stream into the store as specs
    complete, and specs already stored are served without
    re-simulation.
    """

    def __init__(self, path: str, readonly: bool = False) -> None:
        super().__init__(path, readonly=readonly)
        self.manifest = SweepManifest(self.path)

    def register_specs(
        self,
        pairs: Sequence[Tuple[Any, str]],
        settings: Optional[Dict[str, Any]] = None,
    ) -> int:
        if self.readonly:
            return 0
        return self.manifest.register(pairs, settings=settings)

    def pending_specs(self):
        """Manifest specs whose results are not yet stored."""
        return [
            spec
            for spec, key in zip(self.manifest.specs(), self.manifest.keys())
            if key not in self
        ]


# -- resume -------------------------------------------------------------------


def resume(run_dir, jobs=None, cache=None):
    """Finish an interrupted sweep from its run directory.

    Re-enqueues exactly the manifest specs; the engine serves every
    already-stored spec from the store (no simulation) and simulates
    only the remainder, appending their results as they complete.
    Returns the full result list in original manifest order, so a
    resumed sweep is indistinguishable from an uninterrupted one.

    ``jobs`` defaults to the settings snapshot recorded in the
    manifest; pass an explicit value to override.  A directory with
    no manifest raises :class:`~repro.errors.StoreError` before
    anything is opened or created.
    """
    from repro.experiments import parallel

    path = run_dir.path if isinstance(run_dir, RunDirectory) else str(run_dir)
    if not SweepManifest(path).exists():
        raise StoreError(
            f"cannot resume: no {MANIFEST_FILE} in {path} "
            "(was the sweep started with a run directory?)"
        )
    rd = run_dir if isinstance(run_dir, RunDirectory) else RunDirectory(path)
    if jobs is None:
        jobs = rd.manifest.settings().get("jobs", 1)
    kwargs = {} if cache is None else {"cache": cache}
    return parallel.run_many(
        rd.manifest.specs(), jobs=jobs, store=rd, **kwargs
    )


@contextlib.contextmanager
def served_from(run_dir, offline: bool = True) -> Iterator[RunDirectory]:
    """Point the process-wide engine defaults at a run directory.

    With ``offline=True`` (the default) the directory is opened
    read-only and a spec missing from the store raises
    :class:`~repro.errors.EngineError` instead of simulating — the
    rebuild-reports-offline mode::

        with served_from("runs/fig7"):
            data = figures.figure7("dijkstra")
        print(figures.render_figure7("dijkstra", data))

    With ``offline=False`` the directory is writable and missing specs
    are simulated and appended (top-up mode).
    """
    from repro.experiments import parallel

    rd = (
        run_dir
        if isinstance(run_dir, RunDirectory)
        else RunDirectory(str(run_dir), readonly=offline)
    )
    prev = parallel.current_settings()
    parallel.configure(store=rd, offline=offline)
    try:
        yield rd
    finally:
        parallel.configure(store=prev.store, offline=prev.offline)
