"""Trace format v2: binary-framed, checksummed, gzip-compressed segments.

This is the one trace format the code writes: ``repro record``, the trace
archive and the supervised daemon's session journals all use
:class:`SegmentWriter`.  The older v1 JSON-lines format is read-only
(:mod:`repro.observer.trace`), kept so existing ``.trace`` files still
load.  Against v1, v2 does not repeat field names in every record, detects
a flipped bit, and reports corruption at a byte offset, while staying
append-streamable (the writer emits a segment as soon as it fills — it
never needs the whole trace in memory, and neither does the reader).

Layout::

    magic            8 bytes   b"RPROTRC2"
    frame*           until EOF

    frame  := type:u8  length:u32le  payload[length]  crc32(payload):u32le

    type 0x01 HEADER   payload = UTF-8 JSON {"version": 2, "n_threads",
                                 "initial", "program"}
    type 0x02 SEGMENT  payload = gzip(UTF-8 newline-joined Message JSON
                                 lines) — up to ``events_per_segment``
                                 messages per segment
    type 0x03 FOOTER   payload = UTF-8 JSON {"events": N, "segments": S}

Integrity guarantees, in reading order:

* a wrong magic is a :class:`TraceFormatError` at offset 0;
* every frame's CRC-32 is verified *before* its payload is parsed or
  decompressed — a flipped bit anywhere in a frame is reported as a
  checksum mismatch at that frame's byte offset, and the payload is never
  trusted;
* truncation (EOF inside a frame) is reported at the byte offset where
  the frame started;
* the FOOTER's event count must match the number of messages actually
  decoded — a trace missing its tail segments fails loudly even when
  every surviving frame is intact;
* a missing FOOTER (writer died before :meth:`SegmentWriter.close`) is
  itself a format error: archives only contain committed traces.

The three readers — :func:`iter_trace_v2` (strict, streaming),
:func:`read_trace_prefix` (tolerant of a torn tail) and
:func:`read_trace_meta` (header and footer only) — share one header
parser and one segment decoder, so they accept and reject the same
headers.  Errors reuse :class:`repro.observer.trace.TraceFormatError`;
for this binary format the error's position field carries the **byte
offset** of the offending frame (the ``problem`` text says so
explicitly).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Optional, Union

from ..core.events import Message, VarName
from ..obs import metrics as _metrics
from ..observer.trace import V2_MAGIC, TraceFormatError, TraceHeader

__all__ = ["FORMAT_VERSION", "MAGIC", "SegmentWriter", "iter_trace_v2",
           "TracePrefix", "read_trace_prefix", "TraceMeta", "read_trace_meta"]

FORMAT_VERSION = 2
MAGIC = V2_MAGIC
assert len(MAGIC) == 8

_FT_HEADER = 0x01
_FT_SEGMENT = 0x02
_FT_FOOTER = 0x03
_FRAME_HEAD = struct.Struct("<BI")     # type, payload length
_FRAME_CRC = struct.Struct("<I")

#: Refuse absurd frame lengths up front so a corrupted length field cannot
#: make the reader allocate gigabytes before the CRC check runs.
MAX_FRAME_PAYLOAD = 1 << 28

_C_SEGMENTS = _metrics.REGISTRY.counter(
    "store.segments_written", unit="segments",
    help="v2 trace segments flushed to archive files")
_C_BYTES_RAW = _metrics.REGISTRY.counter(
    "store.bytes_raw", unit="bytes",
    help="uncompressed message bytes handed to the segment compressor")
_C_BYTES_COMPRESSED = _metrics.REGISTRY.counter(
    "store.bytes_compressed", unit="bytes",
    help="compressed segment payload bytes written to archive files")
_C_EVENTS_ARCHIVED = _metrics.REGISTRY.counter(
    "store.events_archived", unit="messages",
    help="messages written into v2 trace files")
_C_CHECKPOINTS = _metrics.REGISTRY.counter(
    "store.segment_checkpoints", unit="checkpoints",
    help="mid-stream durability checkpoints (partial segment flushed and "
         "synced without sealing the trace)")


class SegmentWriter:
    """Streaming v2 writer: magic + header frame, then gzip segments.

    Usable as an Algorithm A sink::

        with SegmentWriter(path, n_threads=2, initial=store) as w:
            run_program(program, scheduler, sink=w.write)

    Durability contract: a clean :meth:`close` flushes the last partial
    segment, writes the footer, and fsyncs, so a trace a recorder claims
    to have written survives a crash of the machine right after.  Any
    failed write, and an exception inside a ``with`` block, closes the
    file handle (no leak) without an fsync that could mask the original
    error.  :meth:`abort` additionally unlinks the partial file — the
    archive uses it for sessions that fail mid-stream.
    """

    def __init__(
        self,
        path: str | Path,
        n_threads: int,
        initial: Mapping[VarName, Any],
        program: str = "unknown",
        events_per_segment: int = 512,
        compresslevel: int = 6,
    ):
        if events_per_segment < 1:
            raise ValueError("events_per_segment must be >= 1")
        self.path = Path(path)
        self._per_segment = events_per_segment
        self._level = compresslevel
        self._buffer: list[str] = []
        self.count = 0
        self.segments = 0
        self.bytes_raw = 0
        self.bytes_written = len(MAGIC)
        self._fh: Optional[IO[bytes]] = open(path, "wb")
        try:
            self._fh.write(MAGIC)
            header = {"version": FORMAT_VERSION, "n_threads": n_threads,
                      "initial": dict(initial), "program": program}
            self._emit(_FT_HEADER, json.dumps(header).encode("utf-8"))
        except BaseException:
            self._abandon()
            raise

    # -- frame plumbing -------------------------------------------------------

    def _emit(self, frame_type: int, payload: bytes) -> None:
        assert self._fh is not None
        self._fh.write(_FRAME_HEAD.pack(frame_type, len(payload)))
        self._fh.write(payload)
        self._fh.write(_FRAME_CRC.pack(zlib.crc32(payload)))
        self.bytes_written += _FRAME_HEAD.size + len(payload) + _FRAME_CRC.size

    def _flush_segment(self) -> None:
        if not self._buffer:
            return
        raw = ("\n".join(self._buffer)).encode("utf-8")
        payload = gzip.compress(raw, compresslevel=self._level)
        self._emit(_FT_SEGMENT, payload)
        self.segments += 1
        self.bytes_raw += len(raw)
        self._buffer.clear()
        if _metrics.ENABLED:
            _C_SEGMENTS.inc()
            _C_BYTES_RAW.inc(len(raw))
            _C_BYTES_COMPRESSED.inc(len(payload))

    # -- sink interface -------------------------------------------------------

    def write(self, msg: Message) -> None:
        try:
            line = msg.to_json()
        except BaseException:
            self._abandon()
            raise
        self.write_json(line)

    def write_json(self, line: str) -> None:
        """Append one message already encoded by :meth:`Message.to_json`
        (the wire payload a daemon received, say), without re-encoding."""
        if self._fh is None:
            raise RuntimeError("segment writer is closed")
        try:
            self._buffer.append(line)
            self.count += 1
            if len(self._buffer) >= self._per_segment:
                self._flush_segment()
        except BaseException:
            self._abandon()
            raise
        if _metrics.ENABLED:
            _C_EVENTS_ARCHIVED.inc()

    def checkpoint(self, fsync: bool = True) -> int:
        """Mid-stream durability point: flush the buffered partial segment
        (however short) and push it to disk *without* sealing the trace.

        The file stays open and writable; the footer is still only written
        by :meth:`close`.  This is the incremental-journal primitive the
        crash-resilient server builds on: everything checkpointed is
        readable back through :func:`read_trace_prefix` even if the writer
        process is later killed mid-frame.  Returns the number of events
        durable so far.
        """
        if self._fh is None:
            raise RuntimeError("segment writer is closed")
        try:
            self._flush_segment()
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())
        except BaseException:
            self._abandon()
            raise
        if _metrics.ENABLED:
            _C_CHECKPOINTS.inc()
        return self.count

    def close(self, extra: Optional[Mapping[str, Any]] = None) -> None:
        """Flush the tail segment, seal with the footer, fsync, close.

        ``extra``, when given, is embedded in the footer under the
        ``"catalog"`` key — the archive stores the final verdict there so a
        lost ``catalog.json`` can be rebuilt from trace footers alone.
        """
        fh = self._fh
        if fh is None:
            return
        try:
            self._flush_segment()
            footer: dict[str, Any] = {"events": self.count,
                                      "segments": self.segments}
            if extra is not None:
                footer["catalog"] = dict(extra)
            self._emit(_FT_FOOTER, json.dumps(footer).encode("utf-8"))
            self._fh = None
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            self._fh = None
            fh.close()

    def abort(self) -> None:
        """Error path: close without sealing and remove the partial file.
        Idempotent; safe after :meth:`close` (then it does nothing)."""
        if self._fh is None:
            return
        self._abandon()
        try:
            self.path.unlink()
        except OSError:
            pass

    def _abandon(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self._abandon()
        else:
            self.close()


def _read_exact(fh: IO[bytes], n: int) -> Optional[bytes]:
    """Read exactly n bytes, or None at clean EOF; raises on short reads
    being distinguished by the caller (returns the partial chunk)."""
    chunk = fh.read(n)
    if not chunk:
        return None
    while len(chunk) < n:
        more = fh.read(n - len(chunk))
        if not more:
            return chunk      # truncated: caller reports the offset
        chunk += more
    return chunk


def _frames(path: str | Path, fh: IO[bytes]) -> Iterator[tuple[int, int, bytes]]:
    """Check the magic, then yield ``(frame_offset, frame_type, payload)``
    with the CRC already verified; raises :class:`TraceFormatError` at the
    frame's byte offset on any structural damage."""
    if fh.read(len(MAGIC)) != MAGIC:
        raise TraceFormatError(
            path, 0, f"not a v2 trace file (magic {MAGIC!r} missing)")
    offset = len(MAGIC)
    while True:
        head = _read_exact(fh, _FRAME_HEAD.size)
        if head is None:
            return
        if len(head) < _FRAME_HEAD.size:
            raise TraceFormatError(
                path, offset,
                f"truncated frame at byte offset {offset}: "
                f"{len(head)} of {_FRAME_HEAD.size} header bytes")
        frame_type, length = _FRAME_HEAD.unpack(head)
        if length > MAX_FRAME_PAYLOAD:
            raise TraceFormatError(
                path, offset,
                f"frame at byte offset {offset} declares an implausible "
                f"payload of {length} bytes (corrupt length field?)")
        body = _read_exact(fh, length + _FRAME_CRC.size)
        got = 0 if body is None else len(body)
        if got < length + _FRAME_CRC.size:
            raise TraceFormatError(
                path, offset,
                f"truncated frame at byte offset {offset}: payload+crc is "
                f"{got} of {length + _FRAME_CRC.size} bytes")
        payload, crc_bytes = body[:length], body[length:]
        (crc,) = _FRAME_CRC.unpack(crc_bytes)
        if crc != zlib.crc32(payload):
            raise TraceFormatError(
                path, offset,
                f"checksum mismatch in frame at byte offset {offset}: "
                f"stored crc32={crc:#010x}, "
                f"computed {zlib.crc32(payload):#010x}")
        yield offset, frame_type, payload
        offset += _FRAME_HEAD.size + length + _FRAME_CRC.size


def _json_payload(path: str | Path, offset: int, payload: bytes,
                  what: str) -> dict:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(
            path, offset,
            f"{what} frame at byte offset {offset} is not valid JSON "
            f"({exc})") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError(
            path, offset,
            f"{what} frame at byte offset {offset} must be a JSON object")
    return doc


def _read_header(path: str | Path,
                 frames: Iterator[tuple[int, int, bytes]]) -> TraceHeader:
    """Take the first frame off ``frames`` and validate it as the header.

    The one header parser of every v2 reader, so they all accept and
    reject the same files; every rejection is a :class:`TraceFormatError`.
    """
    try:
        offset, frame_type, payload = next(frames)
    except StopIteration:
        raise TraceFormatError(
            path, len(MAGIC), "empty v2 trace file (no header frame)") from None
    if frame_type != _FT_HEADER:
        raise TraceFormatError(
            path, offset,
            f"first frame must be the header, got frame type "
            f"{frame_type:#04x} at byte offset {offset}")
    doc = _json_payload(path, offset, payload, "header")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            path, offset,
            f"unsupported trace version {version!r} (this reader "
            f"understands version {FORMAT_VERSION})")
    for key in ("n_threads", "initial"):
        if key not in doc:
            raise TraceFormatError(
                path, offset, f"header lacks the mandatory {key!r} field")
    if not isinstance(doc["n_threads"], int):
        raise TraceFormatError(
            path, offset,
            f"header n_threads must be an integer, got {doc['n_threads']!r}")
    try:
        return TraceHeader(
            n_threads=doc["n_threads"],
            initial=dict(doc["initial"]),
            program=doc.get("program", "unknown"),
            version=FORMAT_VERSION,
        )
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(path, offset, f"invalid header: {exc}") from exc


def _decode_segment(path: str | Path, offset: int,
                    payload: bytes) -> list[Message]:
    """Decompress and decode one segment frame, all or nothing: a segment
    that is only partly decodable raises :class:`TraceFormatError`."""
    try:
        raw = gzip.decompress(payload)
    except (OSError, EOFError, zlib.error) as exc:
        raise TraceFormatError(
            path, offset,
            f"segment at byte offset {offset} failed to decompress "
            f"({exc})") from exc
    try:
        return [Message.from_json(line)
                for line in raw.decode("utf-8").splitlines() if line]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            path, offset,
            f"segment at byte offset {offset} holds a malformed message "
            f"record: {exc}") from exc


def _read_footer(path: str | Path, offset: int, payload: bytes) -> dict:
    footer = _json_payload(path, offset, payload, "footer")
    for key in ("events", "segments"):
        if not isinstance(footer.get(key), int):
            raise TraceFormatError(
                path, offset,
                f"footer {key} must be an integer, got {footer.get(key)!r}")
    return footer


def _unknown_frame(path: str | Path, offset: int,
                   frame_type: int) -> TraceFormatError:
    return TraceFormatError(
        path, offset,
        f"unknown frame type {frame_type:#04x} at byte offset {offset}")


def _no_footer(path: str | Path) -> TraceFormatError:
    return TraceFormatError(
        path, len(MAGIC),
        "v2 trace has no footer frame (writer closed uncleanly?)")


def iter_trace_v2(
    path: str | Path,
) -> Iterator[Union[TraceHeader, Message]]:
    """Stream a v2 trace: yields :class:`TraceHeader` then each message.

    Decompresses one segment at a time — peak memory is one segment, not
    the trace.  All integrity violations raise :class:`TraceFormatError`
    with the offending frame's byte offset.
    """
    with open(path, "rb") as fh:
        frames = _frames(path, fh)
        yield _read_header(path, frames)
        events = 0
        segments = 0
        footer: Optional[dict] = None
        for offset, frame_type, payload in frames:
            if footer is not None:
                raise TraceFormatError(
                    path, offset,
                    f"frame at byte offset {offset} after the footer "
                    "(the footer must be the final frame)")
            if frame_type == _FT_SEGMENT:
                batch = _decode_segment(path, offset, payload)
                segments += 1
                events += len(batch)
                yield from batch
            elif frame_type == _FT_FOOTER:
                footer = _read_footer(path, offset, payload)
                if footer["events"] != events:
                    raise TraceFormatError(
                        path, offset,
                        f"footer declares {footer['events']} events but "
                        f"{events} were decoded (missing or extra segments)")
                if footer["segments"] != segments:
                    raise TraceFormatError(
                        path, offset,
                        f"footer declares {footer['segments']} segments "
                        f"but {segments} were decoded")
            else:
                raise _unknown_frame(path, offset, frame_type)
        if footer is None:
            raise _no_footer(path)


@dataclass
class TracePrefix:
    """The recoverable prefix of a (possibly torn) v2 trace file.

    ``complete`` is True iff a footer frame was read — the writer closed
    cleanly.  When the writer was killed mid-frame, ``truncated_at``
    carries a human-readable description of where reading stopped; every
    message before that point is intact (each frame is CRC-verified before
    it is trusted).
    """

    header: TraceHeader
    messages: list[Message]
    complete: bool
    footer: Optional[dict] = None
    truncated_at: Optional[str] = None


def read_trace_prefix(path: str | Path) -> TracePrefix:
    """Read as much of a v2 trace as is intact — the recovery read path.

    Unlike :func:`iter_trace_v2`, damage *after* the header is not an
    error: reading stops at the first torn, checksum-failed or undecodable
    frame and everything before it is returned.  A missing or invalid
    header is still a :class:`TraceFormatError` (there is no prefix to
    recover without one).
    """
    with open(path, "rb") as fh:
        frames = _frames(path, fh)
        header = _read_header(path, frames)
        messages: list[Message] = []
        footer: Optional[dict] = None
        truncated: Optional[str] = None
        try:
            for offset, frame_type, payload in frames:
                if frame_type == _FT_SEGMENT:
                    messages.extend(_decode_segment(path, offset, payload))
                elif frame_type == _FT_FOOTER:
                    footer = _read_footer(path, offset, payload)
                    break
                else:
                    raise _unknown_frame(path, offset, frame_type)
        except TraceFormatError as exc:
            truncated = exc.problem
        return TracePrefix(
            header=header, messages=messages, complete=footer is not None,
            footer=footer, truncated_at=truncated)


@dataclass(frozen=True)
class TraceMeta:
    """Header + footer of a sealed v2 trace, segments skipped.

    ``catalog`` is the footer's embedded catalog extras (verdict,
    counterexamples, final clocks ...) when the writer recorded them —
    the raw material of a catalog rebuild.  ``None`` for traces sealed by
    older writers.
    """

    header: TraceHeader
    events: int
    segments: int
    catalog: Optional[dict]


def read_trace_meta(path: str | Path) -> TraceMeta:
    """Read a sealed trace's header and footer without decompressing any
    segment.  Raises :class:`TraceFormatError` if the file has no footer
    (unsealed) or is otherwise structurally damaged."""
    with open(path, "rb") as fh:
        frames = _frames(path, fh)
        header = _read_header(path, frames)
        footer: Optional[dict] = None
        segments = 0
        for offset, frame_type, payload in frames:
            if frame_type == _FT_SEGMENT:
                segments += 1
            elif frame_type == _FT_FOOTER:
                footer = _read_footer(path, offset, payload)
            else:
                raise _unknown_frame(path, offset, frame_type)
    if footer is None:
        raise _no_footer(path)
    catalog = footer.get("catalog")
    return TraceMeta(
        header=header,
        events=footer["events"],
        segments=segments,
        catalog=catalog if isinstance(catalog, dict) else None,
    )
