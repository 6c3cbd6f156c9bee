"""The trace archive: a durable, append-only store of analyzed sessions.

Layout on disk::

    <root>/
      catalog.json          # the index snapshot (repro.store.catalog)
      catalog.log           # one fsynced record per mutation since then
      traces/
        s000001-xyz.rpt     # v2 segment files, one per committed session
        s000002-bank.rpt.part   # in-flight writer (never cataloged)

Writing is two-phase so the catalog only ever names complete traces:

1. :meth:`TraceArchive.begin` allocates an id and opens a
   :class:`PendingTrace` streaming into ``<id>.rpt.part``;
2. the pipeline calls :meth:`PendingTrace.write` per analyzed message
   (tracking the final per-thread vector clocks as it goes);
3. :meth:`PendingTrace.commit` seals the segment file, renames it to its
   final name, and publishes the catalog entry — or :meth:`PendingTrace.abort`
   deletes the partial file, leaving no trace of a failed session.

All catalog mutation is serialized behind one archive-wide lock; the
analysis server commits from its worker threads concurrently.  Each
mutation (``begin``, ``adopt_sealed``, the publish inside ``commit``,
``remove``) appends one fsynced record to ``catalog.log``; the snapshot is
rewritten only when the log outgrows it, so a commit's catalog cost does
not grow with the archive.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from ..core.events import Message, VarName
from ..engines.base import StreamVerdict
from ..obs import metrics as _metrics
from ..observer.trace import TraceFormatError
from .catalog import (
    VERDICT_CLEAN,
    VERDICT_VIOLATION,
    Catalog,
    CatalogEntry,
    CatalogError,
    CatalogQuery,
)
from .format import FORMAT_VERSION, SegmentWriter, read_trace_meta

__all__ = ["TraceArchive", "PendingTrace", "CatalogRebuildReport",
           "catalog_footer"]

_C_COMMITTED = _metrics.REGISTRY.counter(
    "store.traces_committed", unit="traces",
    help="sessions committed to the archive (catalog entries created)")
_C_ABORTED = _metrics.REGISTRY.counter(
    "store.traces_aborted", unit="traces",
    help="in-flight archive writes abandoned (failed sessions)")
_C_GCED = _metrics.REGISTRY.counter(
    "store.traces_gced", unit="traces",
    help="archived traces removed by retention GC")
_C_REBUILT = _metrics.REGISTRY.counter(
    "store.catalog_rebuilds", unit="rebuilds",
    help="corrupt catalog.json/catalog.log files quarantined and rebuilt "
         "from trace footers on archive open")

# Trace-id sequence extractor; tolerates an optional shard namespace
# prefix (``sh00-s000001-xyz``) in front of the classic ``s000001-xyz``.
_ID_SEQ = re.compile(r"^(?:[A-Za-z0-9_]+-)??s(\d{6})-")

#: Messages per ``Observer.receive_batch`` call when offline re-analysis
#: (archiving, replay) feeds a stored stream through the observer.
INGEST_CHUNK = 512


def ingest_chunks(messages: Iterable[Message]) -> Iterator[list[Message]]:
    """Cut a (possibly lazy) message stream into ``INGEST_CHUNK`` lists."""
    it = iter(messages)
    while chunk := list(islice(it, INGEST_CHUNK)):
        yield chunk


def catalog_footer(program: str, spec: Optional[str], n_threads: int,
                   verdict: StreamVerdict,
                   final_clocks: Sequence[Sequence[int]],
                   wall_time_s: float) -> dict:
    """The verdict a sealed trace embeds in its footer, so a lost catalog
    can be rebuilt from the trace files alone.  It is the catalog entry
    minus what the file itself gives back (id, event count, size, path,
    format).  In-process commits and supervised sessions' journals both
    seal with it; the first engine is the primary one the catalog names."""
    engines = verdict.engines
    primary = engines[0] if engines else None
    return {
        "program": program,
        "spec": spec,
        "n_threads": n_threads,
        "verdict": VERDICT_VIOLATION if verdict.violations else VERDICT_CLEAN,
        "violations": verdict.violations,
        "counterexamples": verdict.counterexamples,
        "final_clocks": [list(c) for c in final_clocks],
        "sound": verdict.sound,
        "wall_time_s": round(wall_time_s, 6),
        "created_at": time.time(),
        "engine": primary["engine"] if primary else "none",
        "engine_version": primary["version"] if primary else "1",
        "engines": [f"{e['engine']}@{e['version']}" for e in engines],
        "engine_spec": primary["spec"] if primary else None,
        "engine_specs": [e["spec"] for e in engines],
    }


class PendingTrace:
    """An in-flight archive write: a session being recorded.

    Mirrors the Algorithm A sink shape (``write(msg)``), accumulates the
    final per-thread vector clocks, and resolves to exactly one of
    :meth:`commit` (trace published, catalog entry returned) or
    :meth:`abort` (partial file removed).  Both are idempotent and
    thread-safe — the server may race a worker's commit against a reader
    thread's teardown.
    """

    def __init__(self, archive: "TraceArchive", trace_id: str,
                 n_threads: int, initial: Mapping[VarName, Any],
                 program: str, spec: Optional[str]):
        self.archive = archive
        self.id = trace_id
        self.program = program
        self.spec = spec
        self.n_threads = n_threads
        self._final_clocks: list[tuple[int, ...]] = [
            (0,) * n_threads for _ in range(n_threads)]
        self._part_path = archive.traces_dir / f"{trace_id}.rpt.part"
        self._final_path = archive.traces_dir / f"{trace_id}.rpt"
        self._writer: Optional[SegmentWriter] = SegmentWriter(
            self._part_path, n_threads, initial, program=program,
            events_per_segment=archive.events_per_segment)
        self._lock = threading.Lock()
        self._resolved = False

    @property
    def count(self) -> int:
        w = self._writer
        return w.count if w is not None else 0

    def write(self, msg: Message, text: Optional[str] = None) -> None:
        """Append one analyzed message (not thread-safe against itself:
        exactly one writer thread, the session's worker, calls this).
        ``text``, when given, is ``msg.to_json()`` already encoded (the
        wire payload) and is stored as is."""
        w = self._writer
        if w is None:
            raise RuntimeError(f"pending trace {self.id} already resolved")
        if text is None:
            w.write(msg)
        else:
            w.write_json(text)
        self._final_clocks[msg.thread] = tuple(msg.clock)

    @property
    def final_clocks(self) -> tuple[tuple[int, ...], ...]:
        """Final MVC per thread: the clock of each thread's last archived
        message (all-zeros for silent threads)."""
        return tuple(self._final_clocks)

    def commit(self, verdict: StreamVerdict,
               wall_time_s: float) -> Optional[CatalogEntry]:
        """Seal the trace with the session's ``verdict`` and publish its
        catalog entry (see :func:`catalog_footer`).

        Returns ``None`` when the trace was already resolved (a concurrent
        abort won the race)."""
        with self._lock:
            if self._resolved:
                return None
            self._resolved = True
            writer, self._writer = self._writer, None
        footer = catalog_footer(self.program, self.spec, self.n_threads,
                                verdict, self.final_clocks, wall_time_s)
        writer.close(extra=footer)
        os.replace(self._part_path, self._final_path)
        entry = self.archive._entry_from_footer(
            self.id, self._final_path, footer, writer.count)
        self.archive._publish(entry)
        if _metrics.ENABLED:
            _C_COMMITTED.inc()
        return entry

    def abort(self) -> None:
        """Drop the partial file; no catalog entry is ever created."""
        with self._lock:
            if self._resolved:
                return
            self._resolved = True
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.abort()
        if _metrics.ENABLED:
            _C_ABORTED.inc()


@dataclass
class CatalogRebuildReport:
    """What happened when a corrupt catalog was rebuilt."""

    #: Where the ``catalog.json`` snapshot was moved (never deleted);
    #: ``None`` when the damage was in a log with no snapshot beside it.
    quarantined_to: Optional[str]
    #: Entries reconstructed from trace footers.
    rebuilt: int = 0
    #: ``(filename, reason)`` for traces that could not be re-indexed
    #: (sealed by a pre-footer-extras writer, or damaged).
    skipped: list[tuple[str, str]] = field(default_factory=list)
    #: Where ``catalog.log`` was moved, if there was one.
    log_quarantined_to: Optional[str] = None


class TraceArchive:
    """A directory of archived traces plus their catalog.

    Args:
        root: archive directory; created (with ``traces/``) if absent.
        events_per_segment: segment granularity handed to the v2 writer.
        namespace: prefix for every allocated trace id (e.g. ``sh00`` →
            ``sh00-s000001-xyz``).  A fleet gives each shard's archive
            directory its own namespace so the per-shard catalogs share
            one fleet-wide id space and query results never collide.

    Thread-safe: catalog reads and mutations are serialized behind one
    lock, and every mutation appends one fsynced ``catalog.log`` record
    before returning.  Opening writes nothing unless it must rebuild.

    A truncated or otherwise unreadable ``catalog.json`` or ``catalog.log``
    does not prevent the archive from opening: the damaged files are
    *quarantined* (renamed alongside, never deleted) and the catalog is
    rebuilt from the verdicts embedded in each sealed trace's footer —
    :attr:`last_rebuild` reports what was recovered and what had to be
    skipped.
    """

    CATALOG_NAME = "catalog.json"

    def __init__(self, root: str | Path, events_per_segment: int = 512,
                 namespace: str = ""):
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.events_per_segment = events_per_segment
        self.namespace = namespace
        self._lock = threading.RLock()
        #: Set when this open had to quarantine and rebuild the catalog.
        self.last_rebuild: Optional[CatalogRebuildReport] = None
        try:
            self._catalog = Catalog.load(self.root / self.CATALOG_NAME)
        except CatalogError:
            self._catalog, self.last_rebuild = self._rebuild_catalog()

    # -- catalog recovery -----------------------------------------------------

    def _quarantine(self, src: Path) -> Optional[str]:
        if not src.exists():
            return None
        dst = src.with_name(src.name + ".quarantined")
        n = 1
        while dst.exists():
            dst = src.with_name(src.name + f".quarantined.{n}")
            n += 1
        os.replace(src, dst)
        return str(dst)

    def _rebuild_catalog(self) -> tuple[Catalog, CatalogRebuildReport]:
        """The corrupt-catalog recovery path: move the damaged snapshot
        and log aside and re-index every sealed trace from its footer
        verdict."""
        catalog = Catalog(self.root / self.CATALOG_NAME)
        report = CatalogRebuildReport(
            quarantined_to=self._quarantine(catalog.path),
            log_quarantined_to=self._quarantine(catalog.log_path))
        max_seq = 0
        for trace_path in sorted(self.traces_dir.glob("*.rpt")):
            trace_id = trace_path.stem
            m = _ID_SEQ.match(trace_id)
            if m:
                max_seq = max(max_seq, int(m.group(1)))
            try:
                meta = read_trace_meta(trace_path)
            except (TraceFormatError, OSError) as exc:
                report.skipped.append((trace_path.name, str(exc)))
                continue
            if meta.catalog is None:
                report.skipped.append(
                    (trace_path.name,
                     "no catalog extras in footer (sealed by an older "
                     "writer); re-import with 'repro archive --import-trace'"))
                continue
            try:
                entry = self._entry_from_footer(
                    trace_id, trace_path, self._footer_of(meta), meta.events)
                catalog.add(entry)
            except (CatalogError, KeyError, TypeError, ValueError) as exc:
                report.skipped.append((trace_path.name, repr(exc)))
                continue
            report.rebuilt += 1
        catalog.next_seq = max_seq + 1
        catalog.save()
        if _metrics.ENABLED:
            _C_REBUILT.inc()
        return catalog, report

    @staticmethod
    def _footer_of(meta) -> dict:
        return {"program": meta.header.program,
                "n_threads": meta.header.n_threads, **meta.catalog}

    def _entry_from_footer(self, trace_id: str, trace_path: Path,
                           footer: Mapping[str, Any],
                           events: int) -> CatalogEntry:
        return CatalogEntry.from_json(dict(
            footer,
            id=trace_id,           # the filename is authoritative
            events=events,
            bytes=trace_path.stat().st_size,
            path=str(trace_path.relative_to(self.root)),
            format=FORMAT_VERSION))

    # -- recording ------------------------------------------------------------

    def begin(self, program: str, n_threads: int,
              initial: Mapping[VarName, Any],
              spec: Optional[str] = None) -> PendingTrace:
        """Open an in-flight recording (allocates and persists the id)."""
        with self._lock:
            trace_id = self._catalog.allocate_id(program,
                                                 namespace=self.namespace)
            self._catalog.log_seq()   # ids survive a restart mid-recording
        return PendingTrace(self, trace_id, n_threads, initial,
                            program=program, spec=spec)

    def _publish(self, entry: CatalogEntry) -> None:
        with self._lock:
            self._catalog.add(entry)
            self._catalog.log_add(entry)

    def record_messages(self, program: str, n_threads: int,
                        initial: Mapping[VarName, Any], messages,
                        spec: Optional[str] = None,
                        engines: Optional[list[str]] = None) -> CatalogEntry:
        """Archive a complete message stream in one call.

        Runs the live pipeline (``Observer`` with causal delivery, feeding
        the analysis bus — a single LTL engine when only ``spec`` is given,
        or the selected ``engines``) while streaming the messages into
        a pending trace, then commits with the resulting verdict — the
        ``repro archive`` CLI path.  ``messages`` may be any iterable,
        including a lazy :func:`~repro.observer.trace.iter_trace` stream;
        it is ingested in :data:`INGEST_CHUNK`-message batches and written
        in stream order.
        """
        from ..logic.monitor import Monitor
        from ..observer.observer import Observer

        monitor = Monitor(spec) if spec else None
        observer = Observer(n_threads, initial, spec=monitor,
                            engines=engines)
        pending = self.begin(program, n_threads, initial, spec=spec)
        t0 = time.perf_counter()
        try:
            for chunk in ingest_chunks(messages):
                observer.receive_batch(chunk)
                for m in chunk:
                    pending.write(m)
            observer.finish()
        except BaseException:
            pending.abort()
            raise
        entry = pending.commit(observer.verdict(), time.perf_counter() - t0)
        assert entry is not None   # nothing else can resolve this pending
        return entry

    def adopt_sealed(self, sealed_path: str | Path,
                     wall_time_s: Optional[float] = None) -> CatalogEntry:
        """Move an externally sealed v2 trace into the archive and publish
        its catalog entry from the verdict embedded in its footer.

        This is how the crash-resilient server promotes a finished
        session's durable journal: the daemon seals the journal file
        (footer + catalog extras) with the worker's verdict, then adopts
        it here.  Raises :class:`TraceFormatError` if the file is
        unsealed, :class:`~repro.store.catalog.CatalogError` if its footer
        carries no catalog extras.
        """
        sealed_path = Path(sealed_path)
        meta = read_trace_meta(sealed_path)
        if meta.catalog is None:
            raise CatalogError(
                f"{sealed_path}: footer has no embedded catalog extras; "
                "cannot adopt without a verdict")
        with self._lock:
            trace_id = self._catalog.allocate_id(
                meta.catalog.get("program", meta.header.program),
                namespace=self.namespace)
            self._catalog.log_seq()
        final = self.traces_dir / f"{trace_id}.rpt"
        shutil.move(str(sealed_path), final)
        footer = self._footer_of(meta)
        if wall_time_s is not None:
            footer["wall_time_s"] = round(wall_time_s, 6)
        entry = self._entry_from_footer(trace_id, final, footer, meta.events)
        self._publish(entry)
        if _metrics.ENABLED:
            _C_COMMITTED.inc()
        return entry

    # -- queries --------------------------------------------------------------

    def entries(self, query: Optional[CatalogQuery] = None
                ) -> list[CatalogEntry]:
        with self._lock:
            return self._catalog.entries(query)

    def get(self, entry_id: str) -> CatalogEntry:
        with self._lock:
            return self._catalog.get(entry_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._catalog)

    def total_bytes(self) -> int:
        with self._lock:
            return self._catalog.total_bytes()

    def path_of(self, entry: CatalogEntry) -> Path:
        return self.root / entry.path

    # -- removal --------------------------------------------------------------

    def remove(self, entry_id: str) -> CatalogEntry:
        """Drop one trace: catalog entry first (persisted), then the file —
        a crash in between leaves an orphan file, never a dangling entry."""
        with self._lock:
            entry = self._catalog.remove(entry_id)
            self._catalog.log_remove(entry_id)
        try:
            self.path_of(entry).unlink()
        except OSError:
            pass
        if _metrics.ENABLED:
            _C_GCED.inc()
        return entry

    def gc(self, policy, now: Optional[float] = None, dry_run: bool = False):
        """Apply a retention policy; see :func:`repro.store.gc.collect`."""
        from .gc import collect

        return collect(self, policy, now=now, dry_run=dry_run)
