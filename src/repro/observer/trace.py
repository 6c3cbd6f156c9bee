"""Trace files: persisted message streams for offline analysis.

JMPaX analyzes live socket streams; for a reusable tool it is equally
useful to persist the instrumented run and analyze it later (or on another
machine).  Two on-disk formats share one reader entry point:

* **v2** (:mod:`repro.store.format`): binary-framed, CRC-checksummed,
  gzip-compressed segments — the only format written
  (``repro.store.format.SegmentWriter``: ``repro record``, the trace
  archive, the daemon's session journals).
* **v1** (read here, never written): JSON lines — a header record then one
  record per message, so traces recorded by older versions still load::

      {"type": "header", "version": 1, "n_threads": 2, "initial": {...},
       "program": "landing-controller"}
      {"thread": 0, "seq": 2, "kind": "write", ...}      # Message.to_json

:func:`iter_trace` and :func:`read_trace` sniff the magic bytes and read
either.  Reading is streaming-first: :func:`iter_trace` yields the header
then one message at a time, so replaying a multi-gigabyte archive never
loads the whole file into memory; :func:`read_trace` is a convenience
that drains the same generator into a :class:`Trace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Union

from ..core.events import Message, VarName

__all__ = ["Trace", "TraceHeader", "TraceFormatError", "read_trace",
           "iter_trace", "trace_version"]

_VERSION = 1

#: First bytes of a v2 (binary segment) trace file; anything else is
#: treated as v1 JSON lines.  Defined here so sniffing does not import the
#: store package; ``repro.store.format`` asserts it uses the same value.
V2_MAGIC = b"RPROTRC2"


class TraceFormatError(ValueError):
    """A trace file violates the format contract.

    Always names the file and a 1-based position of the offending record —
    the *line number* for v1 JSONL traces, the *byte offset* of the
    offending frame for v2 binary traces (the ``problem`` text says which)
    — so a truncated upload or a hand-edited header is diagnosable without
    opening the file.  Subclasses :class:`ValueError` so existing callers
    that caught the old raw errors keep working.
    """

    def __init__(self, path: str | Path, lineno: int, problem: str):
        super().__init__(f"{path}:{lineno}: {problem}")
        self.path = str(path)
        self.lineno = lineno
        self.problem = problem

    @property
    def offset(self) -> int:
        """Alias for :attr:`lineno` under its v2 meaning (byte offset)."""
        return self.lineno


@dataclass(frozen=True)
class TraceHeader:
    """The header record of a trace file, parsed and validated.

    First item yielded by :func:`iter_trace`; carries everything the
    observer needs before the first message arrives.
    """

    n_threads: int
    initial: dict[VarName, Any] = field(default_factory=dict)
    program: str = "unknown"
    version: int = _VERSION

    def __post_init__(self) -> None:
        if self.n_threads <= 0:
            raise ValueError("trace needs at least one thread")


@dataclass
class Trace:
    """A loaded trace: the header plus all messages in file order."""

    n_threads: int
    initial: dict[VarName, Any]
    messages: list[Message]
    program: str = "unknown"

    def __post_init__(self) -> None:
        if self.n_threads <= 0:
            raise ValueError("trace needs at least one thread")


def trace_version(path: str | Path) -> int:
    """Sniff a trace file's format version (1 = JSONL, 2 = binary segments)
    without parsing it."""
    with open(path, "rb") as fh:
        return 2 if fh.read(len(V2_MAGIC)) == V2_MAGIC else 1


def iter_trace(
    path: str | Path,
) -> Iterator[Union[TraceHeader, Message]]:
    """Stream a trace file: yields the :class:`TraceHeader` first, then each
    :class:`Message` in file order, reading incrementally — a multi-GB
    archive never resides in memory.

    Handles both formats: v1 JSON lines (this module) and v2 binary
    segments (``repro.store.format``), dispatching on the magic bytes.

    Every way the file can be malformed — empty, unparseable, a missing or
    version-mismatched header, a record without the mandatory message
    fields, a frame failing its checksum — raises
    :class:`TraceFormatError` naming the file and the offending position,
    never a raw ``KeyError``/``JSONDecodeError``.
    """
    if trace_version(path) == 2:
        from ..store.format import iter_trace_v2

        yield from iter_trace_v2(path)
        return
    yield from _iter_trace_v1(path)


def _iter_trace_v1(path: str | Path) -> Iterator[Union[TraceHeader, Message]]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first:
            raise TraceFormatError(path, 1, "empty trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                path, 1, f"header is not valid JSON ({exc.msg})") from exc
        if not isinstance(header, dict) or header.get("type") != "header":
            raise TraceFormatError(
                path, 1, "missing trace header record "
                         '(expected {"type": "header", ...})')
        version = header.get("version")
        if version != _VERSION:
            raise TraceFormatError(
                path, 1, f"unsupported trace version {version!r} "
                         f"(this reader understands version {_VERSION})")
        for key in ("n_threads", "initial"):
            if key not in header:
                raise TraceFormatError(
                    path, 1, f"header lacks the mandatory {key!r} field")
        if not isinstance(header["n_threads"], int):
            raise TraceFormatError(
                path, 1, f"header n_threads must be an integer, "
                         f"got {header['n_threads']!r}")
        try:
            yield TraceHeader(
                n_threads=header["n_threads"],
                initial=dict(header["initial"]),
                program=header.get("program", "unknown"),
                version=_VERSION,
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(path, 1, f"invalid header: {exc}") from exc
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                yield Message.from_json(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    path, lineno,
                    f"message record is not valid JSON ({exc.msg})") from exc
            except KeyError as exc:
                raise TraceFormatError(
                    path, lineno,
                    f"message record lacks the mandatory {exc.args[0]!r} "
                    "field") from exc
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(
                    path, lineno, f"malformed message record: {exc}") from exc


def read_trace(path: str | Path) -> Trace:
    """Load a whole trace file (header + messages) into memory.

    A convenience over :func:`iter_trace` — same format dispatch, same
    :class:`TraceFormatError` contract; prefer the generator when the
    trace may be large.
    """
    stream = iter_trace(path)
    header = next(stream)
    assert isinstance(header, TraceHeader)
    messages = [m for m in stream if isinstance(m, Message)]
    return Trace(
        n_threads=header.n_threads,
        initial=dict(header.initial),
        messages=messages,
        program=header.program,
    )
