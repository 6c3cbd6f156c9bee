"""Durable session journals: the checkpoint/recovery layer of the server.

Every admitted session under ``ServerConfig(checkpoint_dir=...)`` owns one
journal directory::

    <checkpoint_dir>/session-<token>/
        meta.json     session identity: id, token, epoch, and the
                      admitted hello's program, n_threads, initial
                      store, spec and engine selection
        events.rpt    v2 trace (repro.store.format) of the accepted
                      messages, checkpointed incrementally

The daemon journals every accepted message *ahead* of the analysis and
is the journal's only writer; the supervised worker
(:mod:`repro.server.supervisor`) only reads it.  Because the whole
pipeline is a deterministic function of the message sequence, feeding a
journaled prefix back through
:meth:`~repro.observer.observer.Observer.rebuild` reconstructs
byte-identical analyzer state: a restarted worker replays the journal
and takes the rest from its inbox, with verdict parity guaranteed.
The observer comes from the journal's hello through
:func:`repro.server.session.build_observer`, like every served
session's: strict, so a stream that ends with messages parked behind a
gap fails the session.  A ``meta.json`` written by an older daemon may
carry keys this one no longer reads; they are ignored.

Crash windows are handled at two granularities:

* a torn tail inside ``events.rpt`` (daemon killed mid-frame) is dropped
  by :func:`repro.store.read_trace_prefix`'s whole-frame atomicity — the
  journal rolls back to its last durable checkpoint, and the resuming
  client resends everything past it from its own resume buffer;
* a missing/corrupt ``meta.json`` makes the whole journal unrecoverable —
  :func:`scan_journals` reports it as skipped rather than crashing daemon
  recovery.

The journal uses the trace-archive file format on purpose: when a session
finishes, the daemon *seals* its journal with the catalog footer extras and
promotes the file into the archive with ``TraceArchive.adopt_sealed`` —
no rewrite, no second copy of the trace.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from ..core.events import Message
from ..observer.trace import TraceFormatError
from ..store.format import SegmentWriter, read_trace_prefix
from .protocol import PROTOCOL_VERSION, Hello

__all__ = ["JournalError", "SessionJournal", "scan_journals"]

META_NAME = "meta.json"
EVENTS_NAME = "events.rpt"
META_VERSION = 1

class JournalError(RuntimeError):
    """A session journal is missing, malformed, or unrecoverable."""


def _atomic_write_json(path: Path, doc: Mapping[str, Any]) -> None:
    tmp = path.with_suffix(".tmp")
    data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass
class JournalMeta:
    """Identity of a journaled session — its admitted attach hello plus
    what the daemon needs to readmit it after a restart."""

    session: int
    token: str
    epoch: int
    hello: Hello
    created_at: float
    version: int = META_VERSION

    def to_json(self) -> dict:
        hello = self.hello
        return {
            "version": self.version,
            "session": self.session,
            "token": self.token,
            "epoch": self.epoch,
            "program": hello.program,
            "n_threads": hello.n_threads,
            "initial": dict(hello.initial),
            "spec": hello.spec,
            "created_at": self.created_at,
            "engines": list(hello.engines),
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "JournalMeta":
        try:
            if d["version"] != META_VERSION:
                raise JournalError(
                    f"unsupported journal meta version {d['version']!r}")
            # the hello fields sit at the top level, as in a hello frame
            hello = Hello.from_frame(
                {**d, "t": "hello", "v": PROTOCOL_VERSION, "mode": "attach"})
            return cls(
                session=int(d["session"]),
                token=str(d["token"]),
                epoch=int(d["epoch"]),
                hello=hello,
                created_at=float(d["created_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal meta: {exc!r}") from exc


class SessionJournal:
    """One session's durable checkpoint directory.

    The daemon *creates* journals and opens them for appending via
    :meth:`recover_and_open`, which atomically rolls a possibly-torn
    ``events.rpt`` back to its last durable prefix; the worker only reads
    a prefix back (:meth:`read_prefix`) to rebuild its observer.
    """

    def __init__(self, directory: Path, meta: JournalMeta):
        self.dir = Path(directory)
        self.meta = meta
        self._writer: Optional[SegmentWriter] = None

    # -- daemon side ----------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, *, session: int, token: str,
               hello: Hello, epoch: int = 1) -> "SessionJournal":
        directory = Path(root) / f"session-{token}"
        directory.mkdir(parents=True, exist_ok=False)
        meta = JournalMeta(session=session, token=token, epoch=epoch,
                           hello=hello, created_at=time.time())
        _atomic_write_json(directory / META_NAME, meta.to_json())
        return cls(directory, meta)

    @classmethod
    def open_dir(cls, directory: str | Path) -> "SessionJournal":
        directory = Path(directory)
        meta_path = directory / META_NAME
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"cannot read journal meta {meta_path}: {exc!r}") from exc
        if not isinstance(doc, dict):
            raise JournalError(f"journal meta {meta_path} is not an object")
        return cls(directory, JournalMeta.from_json(doc))

    def bump_epoch(self, epoch: int) -> None:
        """Persist a resume's epoch bump so a daemon restart readmits the
        session at the epoch the client last saw."""
        self.meta.epoch = epoch
        _atomic_write_json(self.dir / META_NAME, self.meta.to_json())

    @property
    def events_path(self) -> Path:
        return self.dir / EVENTS_NAME

    @property
    def count(self) -> int:
        """Events journaled so far (only meaningful while open)."""
        w = self._writer
        return w.count if w is not None else 0

    def recover_and_open(self) -> list[Message]:
        """Open the journal for appending, first salvaging any prior prefix.

        Reads the durable prefix of ``events.rpt`` (tolerating a torn
        tail), rewrites it into a fresh file, atomically replaces the old
        one, and keeps the writer open positioned after the prefix.
        Returns the recovered messages, in delivery order.
        """
        if self._writer is not None:
            raise RuntimeError("journal already open")
        recovered: list[Message] = []
        path = self.events_path
        if path.exists():
            try:
                prefix = read_trace_prefix(path)
                recovered = list(prefix.messages)
            except TraceFormatError:
                # even the header is gone: the journal starts over and the
                # resuming client resends the whole stream
                recovered = []
        new_path = self.dir / (EVENTS_NAME + ".new")
        hello = self.meta.hello
        writer = SegmentWriter(new_path, hello.n_threads, hello.initial,
                               program=hello.program)
        try:
            for msg in recovered:
                writer.write(msg)
            writer.checkpoint(fsync=True)
            os.replace(new_path, path)
        except BaseException:
            writer.abort()
            raise
        writer.path = path          # the open handle now lives under events.rpt
        self._writer = writer
        return recovered

    def write(self, msg: Message, text: Optional[str] = None) -> str:
        """Append ``msg``; returns its JSON encoding, for reuse.  ``text``,
        when given, is that encoding already (the wire payload) and is
        stored as is."""
        if self._writer is None:
            raise RuntimeError("journal is not open")
        if text is None:
            text = msg.to_json()
        self._writer.write_json(text)
        return text

    def checkpoint(self, fsync: bool = True) -> int:
        """Flush (and by default fsync) everything written; returns the
        journaled event count."""
        if self._writer is None:
            raise RuntimeError("journal is not open")
        return self._writer.checkpoint(fsync=fsync)

    def seal(self, extra: Optional[Mapping[str, Any]] = None) -> Path:
        """Close the trace with its footer (and catalog ``extra``), making
        it adoptable by ``TraceArchive.adopt_sealed``."""
        if self._writer is None:
            raise RuntimeError("journal is not open")
        writer, self._writer = self._writer, None
        writer.close(extra=extra)
        return self.events_path

    def close(self) -> None:
        """Close without sealing (no footer): the journal stays a
        recoverable prefix."""
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.checkpoint(fsync=True)
            except (OSError, RuntimeError):
                pass
            writer._abandon()

    def delete(self) -> None:
        """Remove the journal directory — the session is terminal and its
        trace is either promoted into the archive or abandoned."""
        self.close()
        for name in (EVENTS_NAME, EVENTS_NAME + ".new", META_NAME,
                     "meta.tmp"):
            try:
                (self.dir / name).unlink()
            except OSError:
                pass
        try:
            self.dir.rmdir()
        except OSError:
            pass

    # -- worker side ----------------------------------------------------------

    def read_prefix(self, n: int) -> list[Message]:
        """The first ``n`` journaled messages, read without opening the
        journal for writing.  The writer must have flushed them."""
        if n == 0:
            return []
        messages = read_trace_prefix(self.events_path).messages
        if len(messages) < n:
            raise JournalError(
                f"{self.events_path} holds {len(messages)} readable "
                f"messages, fewer than the {n} to replay")
        return messages[:n]


def scan_journals(root: str | Path) -> tuple[list[SessionJournal],
                                             list[tuple[str, str]]]:
    """Find every recoverable journal under ``root``.

    Returns ``(journals, skipped)`` where ``skipped`` pairs a directory
    name with the reason it was passed over — daemon recovery reports them
    instead of refusing to start.
    """
    root = Path(root)
    journals: list[SessionJournal] = []
    skipped: list[tuple[str, str]] = []
    if not root.is_dir():
        return journals, skipped
    for directory in sorted(root.iterdir()):
        if not directory.is_dir() or not directory.name.startswith("session-"):
            continue
        try:
            journals.append(SessionJournal.open_dir(directory))
        except JournalError as exc:
            skipped.append((directory.name, str(exc)))
    journals.sort(key=lambda j: j.meta.session)
    return journals, skipped

