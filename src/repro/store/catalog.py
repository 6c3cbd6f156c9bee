"""The archive catalog: one index record per archived trace.

The catalog is what turns a directory of segment files into a queryable
store: every committed trace gets a :class:`CatalogEntry` carrying the
session identity (program, spec, thread count), the size of the trace
(events, bytes), the **live verdict** (violation count, counterexample
texts, soundness) and the **final per-thread vector clocks** — exactly the
quantities the deterministic replay engine must reproduce bit-for-bit, so
the catalog doubles as the expected-output side of the regression corpus
(``repro replay --all --expect-catalog``).

Persistence is a snapshot plus an append-only log, side by side at the
archive root:

* ``catalog.json`` — the snapshot: one JSON document, written atomically
  (temp file + fsync + ``os.replace``) so a crash mid-save never leaves a
  truncated catalog next to intact trace files;
* ``catalog.log`` — the mutations since that snapshot, one
  newline-terminated JSON record each, fsynced before the mutation
  returns: ``{"op": "seq", "next_seq": N}``, ``{"op": "add", "entry":
  {...}}`` and ``{"op": "remove", "id": ...}``.

:meth:`Catalog.load` reads the snapshot, then replays the log.
:meth:`Catalog.save` is the compaction step — rewrite the snapshot, empty
the log — and a log append runs it only once the log holds more records
than ``max(1, len(catalog))``: the log never outgrows the snapshot, and a
mutation costs amortized O(1) instead of a full rewrite.  Replay is
idempotent (``seq`` takes the maximum, ``add`` overwrites, ``remove`` of
an absent id is a no-op), so records a crash left behind between the
snapshot rename and the log truncation apply harmlessly twice.

A final record without its newline is a torn append (the writer died
mid-write): :meth:`Catalog.load` drops it and the next append truncates
it away.  Any other unreadable record raises :class:`CatalogError`, which
sends the archive down its quarantine-and-rebuild path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..obs import metrics as _metrics

__all__ = ["CatalogEntry", "CatalogQuery", "Catalog", "CatalogError"]

_CATALOG_VERSION = 1

_C_APPENDS = _metrics.REGISTRY.counter(
    "store.catalog_appends", unit="records",
    help="catalog mutations appended (and fsynced) to catalog.log")
_C_COMPACTIONS = _metrics.REGISTRY.counter(
    "store.catalog_compactions", unit="snapshots",
    help="catalog.json snapshots rewritten (log compaction or rebuild)")

#: Catalog verdict strings (`CatalogEntry.verdict`).
VERDICT_VIOLATION = "violation"
VERDICT_CLEAN = "clean"


class CatalogError(ValueError):
    """The catalog file is missing, unparseable, or structurally wrong."""


@dataclass(frozen=True)
class CatalogEntry:
    """One archived trace: identity, size, verdict, replay expectations."""

    id: str
    program: str
    n_threads: int
    events: int
    #: ``"violation"`` or ``"clean"`` (derived from ``violations``).
    verdict: str
    #: Number of violations the live analysis reported.
    violations: int
    #: The live counterexamples, pretty-printed — replay must reproduce
    #: this list exactly (same order, same text).
    counterexamples: tuple[str, ...]
    #: Final MVC of each thread (clock of its last archived message;
    #: all-zeros for a thread that emitted nothing).
    final_clocks: tuple[tuple[int, ...], ...]
    #: Was the live analysis sound everywhere (no loss, no degradation)?
    sound: bool
    #: Wall-clock seconds the live analysis took (replay overhead baseline).
    wall_time_s: float
    #: Unix timestamp the entry was committed (GC's age input).
    created_at: float
    #: Size of the trace file in bytes (GC's size input).
    bytes: int
    #: Trace file path, relative to the archive root.
    path: str
    spec: Optional[str] = None
    #: On-disk trace format version (2 for archive-written traces).
    format: int = 2
    #: Primary analysis engine the verdict came from (``"ltl"`` for every
    #: pre-bus entry with a spec, ``"none"`` for spec-less recordings).
    engine: str = "ltl"
    #: The primary engine's version string.
    engine_version: str = "1"
    #: Every engine that analyzed the stream, as ``name@version``
    #: attribution strings, in verdict order (empty for pre-bus entries).
    engines: tuple[str, ...] = ()
    #: The primary engine's own specification text (the LTL formula, the
    #: pattern string, or a fixed description for spec-less engines).
    engine_spec: Optional[str] = None
    #: Every engine's specification text, parallel to ``engines`` — what
    #: deterministic replay needs to rebuild the exact pipeline
    #: (:func:`repro.store.replay.selections_for_entry`).
    engine_specs: tuple[Optional[str], ...] = ()

    def to_json(self) -> dict:
        # shallow: every field value is immutable (str, number, tuple), so
        # the field dict equals ``dataclasses.asdict`` without its deep copy
        return dict(vars(self))

    @classmethod
    def from_json(cls, doc: dict) -> "CatalogEntry":
        try:
            spec = doc.get("spec")
            engine = doc.get("engine") or ("ltl" if spec else "none")
            engine_version = doc.get("engine_version", "1")
            if "engines" in doc:
                engines = tuple(doc["engines"])
            else:   # pre-bus document: attribute the primary engine
                engines = ((f"{engine}@{engine_version}",)
                           if engine != "none" else ())
            return cls(
                id=doc["id"],
                program=doc["program"],
                n_threads=doc["n_threads"],
                events=doc["events"],
                verdict=doc["verdict"],
                violations=doc["violations"],
                counterexamples=tuple(doc["counterexamples"]),
                final_clocks=tuple(tuple(c) for c in doc["final_clocks"]),
                sound=doc["sound"],
                wall_time_s=doc["wall_time_s"],
                created_at=doc["created_at"],
                bytes=doc["bytes"],
                path=doc["path"],
                spec=spec,
                format=doc.get("format", 2),
                engine=engine,
                engine_version=engine_version,
                engines=engines,
                engine_spec=doc.get("engine_spec", spec),
                engine_specs=tuple(doc.get("engine_specs") or ()),
            )
        except (KeyError, TypeError) as exc:
            raise CatalogError(
                f"malformed catalog entry {doc.get('id', '<no id>')!r}: "
                f"{exc!r}") from exc


@dataclass(frozen=True)
class CatalogQuery:
    """Filter over catalog entries — the ``repro query`` predicate.

    All supplied conditions must hold (conjunction); ``None`` means
    "don't care".  ``program`` is an exact match, ``spec_contains`` a
    substring test on the spec text, ``since``/``before`` bound
    ``created_at``.  ``engine`` matches an entry analyzed by that engine:
    a bare name (``"atomicity"``) matches any version, a qualified
    ``"atomicity@1"`` matches exactly.
    """

    program: Optional[str] = None
    spec_contains: Optional[str] = None
    verdict: Optional[str] = None
    engine: Optional[str] = None
    min_events: Optional[int] = None
    max_events: Optional[int] = None
    since: Optional[float] = None
    before: Optional[float] = None

    def __post_init__(self) -> None:
        if self.verdict not in (None, VERDICT_VIOLATION, VERDICT_CLEAN):
            raise ValueError(
                f"verdict filter must be {VERDICT_VIOLATION!r} or "
                f"{VERDICT_CLEAN!r}, got {self.verdict!r}")

    def matches(self, entry: CatalogEntry) -> bool:
        if self.program is not None and entry.program != self.program:
            return False
        if (self.spec_contains is not None
                and self.spec_contains not in (entry.spec or "")):
            return False
        if self.verdict is not None and entry.verdict != self.verdict:
            return False
        if self.engine is not None and not self._engine_matches(entry):
            return False
        if self.min_events is not None and entry.events < self.min_events:
            return False
        if self.max_events is not None and entry.events > self.max_events:
            return False
        if self.since is not None and entry.created_at < self.since:
            return False
        if self.before is not None and entry.created_at >= self.before:
            return False
        return True

    def _engine_matches(self, entry: CatalogEntry) -> bool:
        want = self.engine
        names = set(entry.engines)
        names.add(f"{entry.engine}@{entry.engine_version}")
        if "@" in want:
            return want in names
        return any(q.partition("@")[0] == want for q in names)


class Catalog:
    """The archive's index: a snapshot document plus an append-only log.

    Not thread-safe by itself — :class:`~repro.store.archive.TraceArchive`
    serializes access behind its own lock.  One writer process per file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.log_path = self.path.with_suffix(".log")
        self.next_seq = 1
        self._entries: dict[str, CatalogEntry] = {}
        #: Complete records in the log, and the byte offset just past the
        #: last one — anything beyond it is a torn append.
        self._log_records = 0
        self._log_end = 0
        self._torn = False

    # -- persistence ----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        """Read the snapshot, then replay the log; missing files are empty.

        A compaction racing this read can replace the snapshot after it
        was read and empty the log before the log is read; that is seen
        as a changed snapshot file and the catalog is read once more."""
        cat = cls(path)
        seen = _file_id(cat.path)
        cat._read_snapshot()
        cat._replay_log()
        if _file_id(cat.path) != seen:
            cat = cls(path)
            cat._read_snapshot()
            cat._replay_log()
        return cat

    def _read_snapshot(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError) as exc:
            raise CatalogError(
                f"cannot read catalog {self.path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != _CATALOG_VERSION:
            raise CatalogError(
                f"catalog {self.path}: unsupported document version "
                f"{doc.get('version') if isinstance(doc, dict) else doc!r}")
        self.next_seq = int(doc.get("next_seq", 1))
        for raw in doc.get("entries", []):
            entry = CatalogEntry.from_json(raw)
            self._entries[entry.id] = entry

    def _replay_log(self) -> None:
        try:
            with open(self.log_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CatalogError(
                f"cannot read catalog log {self.log_path}: {exc}") from exc
        end = data.rfind(b"\n") + 1
        self._torn = end < len(data)
        records = data[:end].split(b"\n")[:-1]
        for n, raw in enumerate(records, 1):
            try:
                self._apply(json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                raise CatalogError(
                    f"catalog log {self.log_path}: bad record {n}: "
                    f"{exc}") from exc
        self._log_records = len(records)
        self._log_end = end

    def _apply(self, record: dict) -> None:
        op = record["op"]
        if op == "seq":
            self.next_seq = max(self.next_seq, int(record["next_seq"]))
        elif op == "add":
            entry = CatalogEntry.from_json(record["entry"])
            self._entries[entry.id] = entry
        elif op == "remove":
            self._entries.pop(record["id"], None)
        else:
            raise ValueError(f"unknown op {op!r}")

    def save(self) -> None:
        """Compact: atomically write the snapshot (temp file + fsync +
        rename), then empty the log it now covers."""
        doc = {
            "version": _CATALOG_VERSION,
            "next_seq": self.next_seq,
            "entries": [e.to_json() for e in self.entries()],
        }
        tmp = self.path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        try:
            os.truncate(self.log_path, 0)
        except FileNotFoundError:
            pass
        self._log_records = self._log_end = 0
        self._torn = False
        if _metrics.ENABLED:
            _C_COMPACTIONS.inc()

    def log_seq(self) -> None:
        """Persist ``next_seq`` (after :meth:`allocate_id`)."""
        self._append({"op": "seq", "next_seq": self.next_seq})

    def log_add(self, entry: CatalogEntry) -> None:
        """Persist an :meth:`add`."""
        self._append({"op": "add", "entry": entry.to_json()})

    def log_remove(self, entry_id: str) -> None:
        """Persist a :meth:`remove`."""
        self._append({"op": "remove", "id": entry_id})

    def _append(self, record: dict) -> None:
        """Append one record and fsync it; compact once the log holds
        more records than the catalog has entries."""
        line = (json.dumps(record, separators=(",", ":"), default=str)
                + "\n").encode("utf-8")
        try:
            with open(self.log_path, "ab", buffering=0) as fh:
                if self._torn:
                    fh.truncate(self._log_end)
                    self._torn = False
                fh.write(line)
                os.fsync(fh.fileno())
        except BaseException:
            self._torn = True   # a partial line may be on disk: cut it
            raise
        self._log_end += len(line)
        self._log_records += 1
        if _metrics.ENABLED:
            _C_APPENDS.inc()
        if self._log_records > max(1, len(self._entries)):
            self.save()

    # -- mutation -------------------------------------------------------------

    def allocate_id(self, program: str, namespace: str = "") -> str:
        """Mint a unique trace id: a monotone sequence number plus the
        program name, e.g. ``s000003-xyz``.  A nonempty ``namespace``
        prefixes the id (``sh00-s000003-xyz``) so several archive
        directories — one per fleet shard — share one id namespace."""
        seq = self.next_seq
        self.next_seq += 1
        safe = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in program) or "unknown"
        prefix = ""
        if namespace:
            prefix = "".join(c if c.isalnum() or c == "_" else "-"
                             for c in namespace).strip("-") + "-"
        return f"{prefix}s{seq:06d}-{safe}"

    def add(self, entry: CatalogEntry) -> None:
        if entry.id in self._entries:
            raise CatalogError(f"duplicate catalog id {entry.id!r}")
        self._entries[entry.id] = entry

    def remove(self, entry_id: str) -> CatalogEntry:
        try:
            return self._entries.pop(entry_id)
        except KeyError as exc:
            raise CatalogError(f"no catalog entry {entry_id!r}") from exc

    # -- queries --------------------------------------------------------------

    def get(self, entry_id: str) -> CatalogEntry:
        try:
            return self._entries[entry_id]
        except KeyError as exc:
            raise CatalogError(f"no catalog entry {entry_id!r}") from exc

    def entries(
        self, query: Optional[CatalogQuery] = None
    ) -> list[CatalogEntry]:
        """All (matching) entries, oldest first (by creation then id)."""
        out: Iterable[CatalogEntry] = self._entries.values()
        if query is not None:
            out = (e for e in out if query.matches(e))
        return sorted(out, key=lambda e: (e.created_at, e.id))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def total_bytes(self) -> int:
        return sum(e.bytes for e in self._entries.values())


def _file_id(path: Path) -> Optional[tuple]:
    """Identity of the file at ``path`` — it changes when ``os.replace``
    puts another file there — or ``None`` when there is none."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
