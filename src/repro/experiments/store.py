"""Crash-safe persistent result store and checkpoint/resume layer.

A million-spec sweep must survive a worker-pool crash, a host reboot,
or a ctrl-C without losing the hours of simulation that already
finished.  The :class:`~repro.experiments.parallel.ResultCache` gives
content-addressed reuse, but it is one pickle file per result with no
record of *what the sweep was*; this module adds the durable layer the
engine checkpoints through:

* :class:`ResultStore` — an append-only JSONL result store keyed by
  the spec content hash.  Records are appended to an *active segment*
  (``segment-NNNNN.jsonl.part``), flushed and ``fsync``'d per record,
  and the segment is atomically renamed to ``segment-NNNNN.jsonl``
  when it reaches its rotation size (or on :meth:`~ResultStore.close`).
  The reader tolerates a truncated trailing record — the signature of
  a crash mid-append — by keeping the valid prefix and reporting the
  skipped bytes; on reopen the valid prefix of a leftover ``.part``
  file is sealed into a finalized segment via tmp-file+rename.
* :class:`SweepManifest` — the materialized spec list + engine
  settings snapshot, written atomically *before the first run*, so a
  crashed sweep knows exactly which specs it owed.
* :class:`RunDirectory` — one sweep's on-disk home: ``manifest.json``
  + ``results/`` segments.  This is the object the engine's ``store=``
  argument wants.
* :func:`resume` — re-enqueue exactly the manifest specs whose results
  are not yet durable; already-stored specs are served from the store
  without re-simulation.
* :func:`served_from` — context manager that points the process-wide
  engine defaults at a run directory, optionally in *offline* mode
  (``offline=True``: a spec missing from the store raises instead of
  simulating), so figures/tables/export can be rebuilt from a run
  directory with no simulation at all.

Record format
-------------

One JSON object per line::

    {"key": "<sha256>", "spec": {...}, "result": "<base64 pickle>"}

The spec fields ride along in plain JSON for grepability and manifest
cross-checks; the :class:`~repro.experiments.runner.RunResult` payload
is pickled (base64) so outputs round-trip *bit-identically* — resumed
sweeps must be indistinguishable from uninterrupted ones, and JSON
would silently turn tuples into lists.

Durability contract
-------------------

``put`` returns only after the record is flushed to the OS (and
``fsync``'d unless ``fsync=False``); finalized segments are renamed
atomically and their directory entry fsync'd.  A crash can therefore
lose at most the one record being appended, and that loss is detected
and skipped by the tolerant reader rather than poisoning the file.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import os
import pickle
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.core.costs import CostModel
from repro.core.machine import MachineConfig
from repro.errors import StoreError
from repro.experiments.runner import RunResult

#: Subdirectory of a run directory holding the result segments.
RESULTS_SUBDIR = "results"

#: Manifest file name inside a run directory.
MANIFEST_FILE = "manifest.json"

#: Records per segment before rotation.  Small enough that a crashed
#: active segment re-seals instantly, large enough that a million-spec
#: sweep stays in the hundreds of files.
DEFAULT_SEGMENT_RECORDS = 4096

_SEGMENT_RE = re.compile(r"^segment-(\d+)\.jsonl$")
_PART_SUFFIX = ".part"


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


# -- tolerant JSONL reading ----------------------------------------------------


def read_jsonl_records(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a JSONL file, tolerating a truncated *trailing* record.

    Returns ``(records, skipped_bytes)``.  A decode failure on the
    final non-empty line is the signature of a crash mid-append: the
    valid prefix is returned and the byte length of the torn tail
    reported.  A decode failure anywhere *else* is real corruption and
    raises :class:`~repro.errors.StoreError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[Dict[str, Any]] = []
    skipped = 0
    chunks = data.split(b"\n")
    last_nonempty = max(
        (i for i, c in enumerate(chunks) if c.strip()), default=-1
    )
    for i, chunk in enumerate(chunks):
        if not chunk.strip():
            continue
        try:
            records.append(json.loads(chunk.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            if i == last_nonempty:
                skipped = len(chunk)
                break
            raise StoreError(
                f"corrupt record at line {i + 1} of {path}: {exc}"
            ) from exc
    return records, skipped


# -- result store --------------------------------------------------------------


@dataclass(slots=True)
class StoreStats:
    """Store activity counters (tests assert resumes hit every time)."""

    hits: int = 0
    misses: int = 0
    appends: int = 0
    sealed_segments: int = 0
    recovered_records: int = 0
    skipped_bytes: int = 0


class ResultStore:
    """Append-only, crash-safe ``key -> RunResult`` store on disk.

    ``readonly=True`` opens an existing store for serving only (no
    recovery writes, no appends) — the offline-rebuild mode.
    """

    def __init__(
        self,
        path: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        fsync: bool = True,
        readonly: bool = False,
    ) -> None:
        if segment_records < 1:
            raise StoreError(
                f"segment_records must be positive: {segment_records!r}"
            )
        self.path = str(path)
        self.segment_records = int(segment_records)
        self.fsync = bool(fsync)
        self.readonly = bool(readonly)
        self.stats = StoreStats()
        self._memory: Dict[str, RunResult] = {}
        self._active_fh = None
        self._active_path: Optional[str] = None
        self._active_records = 0
        self._next_index = 0
        if self.readonly:
            if not os.path.isdir(self.path):
                raise StoreError(f"no result store at {self.path}")
        else:
            os.makedirs(self.path, exist_ok=True)
            self._recover()
        self._load()

    # -- layout ------------------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.path, f"segment-{index:05d}.jsonl")

    def _segment_files(self) -> List[str]:
        """Finalized segment file names, in index order."""
        names = [
            n for n in os.listdir(self.path) if _SEGMENT_RE.match(n)
        ]
        return sorted(names, key=lambda n: int(_SEGMENT_RE.match(n).group(1)))

    def _part_files(self) -> List[str]:
        return sorted(
            n
            for n in os.listdir(self.path)
            if n.endswith(".jsonl" + _PART_SUFFIX)
        )

    # -- open-time recovery ------------------------------------------------

    def _recover(self) -> None:
        """Seal the valid prefix of any crashed active segment.

        A leftover ``.part`` file means a writer died mid-sweep.  Its
        intact records are rewritten through a tmp file and renamed
        into the finalized segment name (dropping any torn tail), so
        appends never continue after a truncated record.
        """
        for name in os.listdir(self.path):
            if name.endswith(".tmp"):  # torn recovery attempt
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(self.path, name))
        for name in self._part_files():
            part = os.path.join(self.path, name)
            records, skipped = read_jsonl_records(part)
            self.stats.skipped_bytes += skipped
            final = part[: -len(_PART_SUFFIX)]
            if not records:
                os.remove(part)
                continue
            tmp = final + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            os.remove(part)
            _fsync_dir(self.path)
            self.stats.recovered_records += len(records)

    def _load(self) -> None:
        names = self._segment_files()
        if self.readonly:
            names = names + self._part_files()
        max_index = -1
        for name in names:
            match = _SEGMENT_RE.match(name.replace(_PART_SUFFIX, ""))
            if match:
                max_index = max(max_index, int(match.group(1)))
            records, skipped = read_jsonl_records(
                os.path.join(self.path, name)
            )
            self.stats.skipped_bytes += skipped
            for record in records:
                key = record.get("key")
                blob = record.get("result")
                if not key or blob is None:
                    continue
                try:
                    result = pickle.loads(base64.b64decode(blob))
                except Exception as exc:  # noqa: BLE001 - corrupt payload
                    raise StoreError(
                        f"unreadable result payload for key {key} in {name}"
                    ) from exc
                self._memory[key] = result
        self._next_index = max_index + 1

    # -- engine-facing API -------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        result = self._memory.get(key)
        if result is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return result

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def __len__(self) -> int:
        return len(self._memory)

    def keys(self):
        return self._memory.keys()

    def results(self) -> Dict[str, RunResult]:
        """Snapshot of every durable result (offline report building)."""
        return dict(self._memory)

    def put(self, key: str, result: RunResult, spec=None) -> bool:
        """Durably append one result; returns False if already stored.

        Duplicate keys are suppressed (the store stays duplicate-free
        even if a resumed sweep races a salvage write).
        """
        if self.readonly:
            raise StoreError(f"result store {self.path} is read-only")
        if key in self._memory:
            return False
        record = {
            "key": key,
            "spec": None if spec is None else spec_to_dict(spec),
            "result": base64.b64encode(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }
        if self._active_fh is None:
            self._active_path = (
                self._segment_path(self._next_index) + _PART_SUFFIX
            )
            self._active_fh = open(self._active_path, "a", encoding="utf-8")
        self._active_fh.write(json.dumps(record, sort_keys=True))
        self._active_fh.write("\n")
        self._active_fh.flush()
        if self.fsync:
            os.fsync(self._active_fh.fileno())
        self._memory[key] = result
        self._active_records += 1
        self.stats.appends += 1
        if self._active_records >= self.segment_records:
            self._seal_active()
        return True

    def _seal_active(self) -> None:
        """Atomically finalize the active segment (fsync + rename)."""
        if self._active_fh is None:
            return
        self._active_fh.flush()
        os.fsync(self._active_fh.fileno())
        self._active_fh.close()
        final = self._active_path[: -len(_PART_SUFFIX)]
        os.replace(self._active_path, final)
        _fsync_dir(self.path)
        self._active_fh = None
        self._active_path = None
        self._active_records = 0
        self._next_index += 1
        self.stats.sealed_segments += 1

    def close(self) -> None:
        """Seal the active segment (idempotent)."""
        if self._active_fh is None:
            return
        if self._active_records:
            self._seal_active()
        else:  # an empty .part never became durable state
            self._active_fh.close()
            with contextlib.suppress(OSError):
                os.remove(self._active_path)
            self._active_fh = None
            self._active_path = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(os.path.dirname(self.path) or ".")
        return added


# -- run directory -------------------------------------------------------------


class RunDirectory:
    """One sweep's durable home: manifest + result store.

    Layout::

        RUNDIR/
          manifest.json            # spec list + settings snapshot
          results/
            segment-00000.jsonl    # finalized, fsync'd, atomic-renamed
            segment-00001.jsonl.part   # active segment (crash-tolerant)

    Pass an instance as ``run_many(..., store=rd)`` (or
    ``configure(store=rd)``): results stream into the store as specs
    complete, specs are registered in the manifest before the first
    run, and specs already durable are served without re-simulation.
    """

    def __init__(
        self,
        path: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        fsync: bool = True,
        readonly: bool = False,
    ) -> None:
        self.path = str(path)
        self.readonly = bool(readonly)
        if self.readonly:
            if not os.path.isdir(self.path):
                raise StoreError(f"no run directory at {self.path}")
        else:
            os.makedirs(self.path, exist_ok=True)
        self.manifest = SweepManifest(self.path)
        self.store = ResultStore(
            os.path.join(self.path, RESULTS_SUBDIR),
            segment_records=segment_records,
            fsync=fsync,
            readonly=readonly,
        )

    # -- engine protocol ---------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        return self.store.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.store

    def put(self, key: str, result: RunResult, spec=None) -> bool:
        return self.store.put(key, result, spec=spec)

    def register_specs(
        self,
        pairs: Sequence[Tuple[Any, str]],
        settings: Optional[Dict[str, Any]] = None,
    ) -> int:
        if self.readonly:
            return 0
        return self.manifest.register(pairs, settings=settings)

    # -- bookkeeping -------------------------------------------------------

    def keys(self):
        return self.store.keys()

    def pending_specs(self):
        """Manifest specs whose results are not yet durable."""
        return [
            spec
            for spec, key in zip(self.manifest.specs(), self.manifest.keys())
            if key not in self.store
        ]

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "RunDirectory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.store)


# -- resume -------------------------------------------------------------------


def resume(run_dir, jobs=None, cache=None):
    """Finish an interrupted sweep from its run directory.

    Re-enqueues exactly the manifest specs; the engine serves every
    already-durable spec from the store (no simulation) and simulates
    only the remainder, streaming their results into the store as
    they complete.  Returns the full result list in original manifest
    order, so a resumed sweep is indistinguishable from an
    uninterrupted one.

    ``jobs`` defaults to the settings snapshot recorded in the
    manifest; pass an explicit value to override.
    """
    from repro.experiments import parallel

    rd = run_dir if isinstance(run_dir, RunDirectory) else RunDirectory(
        str(run_dir)
    )
    if not rd.manifest.exists():
        raise StoreError(
            f"cannot resume: no {MANIFEST_FILE} in {rd.path} "
            "(was the sweep started with a run directory?)"
        )
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

        with served_from("runs/fig7") as rd:
            print(figures.render_figure7("dijkstra"))

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
        if not rd.readonly:
            rd.close()
