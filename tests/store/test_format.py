"""Trace format v2: round-trips, streaming, and corruption rejection."""

import gzip
import json
import struct
import zlib

import pytest

from repro.core.events import Message
from repro.observer.trace import (
    TraceFormatError,
    TraceHeader,
    iter_trace,
    read_trace,
    trace_version,
)
from repro.store.format import (
    MAGIC,
    MAX_FRAME_PAYLOAD,
    SegmentWriter,
    iter_trace_v2,
    read_trace_meta,
    read_trace_prefix,
)

from ..conftest import V1_XYZ_TRACE as V1_XYZ
from .conftest import run_workload

_FRAME_HEAD = struct.Struct("<BI")
_FRAME_CRC = struct.Struct("<I")


def write_v2(path, execution, program="xyz", **kw):
    with SegmentWriter(path, execution.n_threads, execution.initial_store,
                       program=program, **kw) as w:
        for m in execution.messages:
            w.write(m)
    return w


def frame(frame_type, payload):
    """One v2 frame around ``payload``, with its CRC."""
    return (_FRAME_HEAD.pack(frame_type, len(payload)) + payload
            + _FRAME_CRC.pack(zlib.crc32(payload)))


def frame_offsets(path):
    """Byte offset of every frame in a v2 file, in order."""
    data = path.read_bytes()
    offsets = []
    pos = len(MAGIC)
    while pos < len(data):
        offsets.append(pos)
        _, length = _FRAME_HEAD.unpack_from(data, pos)
        pos += _FRAME_HEAD.size + length + _FRAME_CRC.size
    return offsets


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        execution, _ = run_workload("xyz")
        path = tmp_path / "t.rpt"
        w = write_v2(path, execution)
        assert w.count == len(execution.messages)
        trace = read_trace(path)
        assert trace.n_threads == execution.n_threads
        assert trace.program == "xyz"
        assert trace.initial == dict(execution.initial_store)
        assert [m.to_json() for m in trace.messages] == [
            m.to_json() for m in execution.messages]

    def test_multi_segment(self, tmp_path):
        execution, _ = run_workload("xyz")
        path = tmp_path / "t.rpt"
        w = write_v2(path, execution, events_per_segment=2)
        assert w.segments >= 2
        trace = read_trace(path)
        assert len(trace.messages) == len(execution.messages)

    def test_streaming_yields_header_first(self, tmp_path):
        execution, _ = run_workload("xyz")
        path = tmp_path / "t.rpt"
        write_v2(path, execution)
        stream = iter_trace_v2(path)
        header = next(stream)
        assert isinstance(header, TraceHeader)
        assert header.version == 2
        messages = list(stream)
        assert all(isinstance(m, Message) for m in messages)
        assert len(messages) == len(execution.messages)

    def test_compresses_relative_to_v1(self, tmp_path):
        execution, _ = run_workload("counter", seed=1)
        # the v1 body: the same records as JSON lines, one per message
        v1_bytes = sum(len(m.to_json()) + 1 for m in execution.messages)
        # tiny traces may not win, but the writer must account its bytes
        w = write_v2(tmp_path / "t2.rpt", execution)
        assert w.bytes_written == (tmp_path / "t2.rpt").stat().st_size
        assert 0 < w.bytes_raw <= v1_bytes


class TestDispatch:
    """iter_trace/read_trace sniff the magic and route v1 vs v2."""

    def test_trace_version(self, tmp_path):
        execution, _ = run_workload("xyz")
        v2 = tmp_path / "t.rpt"
        write_v2(v2, execution)
        assert trace_version(V1_XYZ) == 1
        assert trace_version(v2) == 2

    def test_read_trace_reads_both(self, tmp_path):
        t1 = read_trace(V1_XYZ)
        v2 = tmp_path / "t.rpt"
        with SegmentWriter(v2, t1.n_threads, t1.initial,
                           program=t1.program) as w:
            for m in t1.messages:
                w.write(m)
        t2 = read_trace(v2)
        assert [m.to_json() for m in t1.messages] == [
            m.to_json() for m in t2.messages]
        assert (t1.initial, t1.program) == (t2.initial, t2.program)

    def test_iter_trace_streams_v2(self, tmp_path):
        execution, _ = run_workload("xyz")
        path = tmp_path / "t.rpt"
        write_v2(path, execution)
        items = list(iter_trace(path))
        assert isinstance(items[0], TraceHeader)
        assert len(items) == 1 + len(execution.messages)


class TestWriterLifecycle:
    def test_write_after_close(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = SegmentWriter(tmp_path / "t.rpt", 2, {})
        w.close()
        with pytest.raises(RuntimeError):
            w.write(execution.messages[0])

    def test_close_idempotent(self, tmp_path):
        w = SegmentWriter(tmp_path / "t.rpt", 2, {})
        w.close()
        w.close()

    def test_abort_removes_file(self, tmp_path):
        execution, _ = run_workload("xyz")
        path = tmp_path / "t.rpt"
        w = SegmentWriter(path, 2, execution.initial_store)
        w.write(execution.messages[0])
        w.abort()
        assert not path.exists()
        w.abort()  # idempotent

    def test_abort_after_close_keeps_file(self, tmp_path):
        path = tmp_path / "t.rpt"
        w = SegmentWriter(path, 2, {})
        w.close()
        w.abort()
        assert path.exists()

    def test_exit_on_error_closes_without_sealing(self, tmp_path):
        path = tmp_path / "t.rpt"
        with pytest.raises(RuntimeError, match="boom"):
            with SegmentWriter(path, 2, {}) as w:
                raise RuntimeError("boom")
        assert w._fh is None
        # the unsealed partial file has no footer, so reading it fails
        with pytest.raises(TraceFormatError, match="footer"):
            read_trace(path)

    def test_rejects_bad_segment_size(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentWriter(tmp_path / "t.rpt", 2, {}, events_per_segment=0)


class TestCorruption:
    """Every damage mode is a TraceFormatError naming the byte offset."""

    @pytest.fixture
    def good(self, tmp_path):
        execution, _ = run_workload("xyz")   # 4 messages -> 2 segments
        path = tmp_path / "t.rpt"
        write_v2(path, execution, events_per_segment=2)
        return path

    def test_wrong_magic(self, tmp_path, good):
        bad = tmp_path / "bad.rpt"
        bad.write_bytes(b"NOTMAGIC" + good.read_bytes()[8:])
        with pytest.raises(TraceFormatError) as exc:
            list(iter_trace_v2(bad))
        assert exc.value.lineno == 0
        assert "magic" in exc.value.problem
        # offset is an alias for the position field on v2 errors
        assert exc.value.offset == 0

    def test_bit_flip_is_checksum_mismatch_at_frame_offset(self, good):
        offsets = frame_offsets(good)
        target = offsets[1]  # first segment frame
        data = bytearray(good.read_bytes())
        data[target + _FRAME_HEAD.size] ^= 0xFF  # flip payload bits
        good.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as exc:
            list(iter_trace_v2(good))
        assert "checksum mismatch" in exc.value.problem
        assert exc.value.offset == target
        assert f"byte offset {target}" in exc.value.problem

    def test_truncated_file(self, good):
        offsets = frame_offsets(good)
        data = good.read_bytes()
        good.write_bytes(data[:offsets[-1] + 3])  # cut inside last frame
        with pytest.raises(TraceFormatError) as exc:
            list(iter_trace_v2(good))
        assert "truncated" in exc.value.problem
        assert exc.value.offset == offsets[-1]

    def test_missing_footer(self, good):
        offsets = frame_offsets(good)
        good.write_bytes(good.read_bytes()[:offsets[-1]])  # drop the footer
        with pytest.raises(TraceFormatError, match="no footer"):
            list(iter_trace_v2(good))

    def test_dropped_segment_caught_by_footer_count(self, good):
        offsets = frame_offsets(good)
        data = good.read_bytes()
        # splice out one middle segment frame (header=0, segments..., footer)
        start, end = offsets[1], offsets[2]
        good.write_bytes(data[:start] + data[end:])
        with pytest.raises(TraceFormatError, match="events"):
            list(iter_trace_v2(good))

    def test_implausible_length_field(self, tmp_path):
        path = tmp_path / "t.rpt"
        path.write_bytes(
            MAGIC + _FRAME_HEAD.pack(0x01, MAX_FRAME_PAYLOAD + 1))
        with pytest.raises(TraceFormatError, match="implausible"):
            list(iter_trace_v2(path))

    def test_unknown_frame_type(self, good):
        data = good.read_bytes()
        payload = b"{}"
        extra = (_FRAME_HEAD.pack(0x7F, len(payload)) + payload
                 + _FRAME_CRC.pack(zlib.crc32(payload)))
        offsets = frame_offsets(good)
        # insert before the footer so the footer-is-last rule isn't hit first
        good.write_bytes(data[:offsets[-1]] + extra + data[offsets[-1]:])
        with pytest.raises(TraceFormatError, match="unknown frame type"):
            list(iter_trace_v2(good))

    def test_frame_after_footer(self, good):
        data = good.read_bytes()
        payload = gzip.compress(b"")
        extra = (_FRAME_HEAD.pack(0x02, len(payload)) + payload
                 + _FRAME_CRC.pack(zlib.crc32(payload)))
        good.write_bytes(data + extra)
        with pytest.raises(TraceFormatError, match="after the footer"):
            list(iter_trace_v2(good))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.rpt"
        path.write_bytes(MAGIC)
        with pytest.raises(TraceFormatError, match="empty"):
            list(iter_trace_v2(path))

    def test_header_must_come_first(self, tmp_path):
        payload = gzip.compress(b"")
        path = tmp_path / "t.rpt"
        path.write_bytes(MAGIC + _FRAME_HEAD.pack(0x02, len(payload))
                         + payload + _FRAME_CRC.pack(zlib.crc32(payload)))
        with pytest.raises(TraceFormatError, match="first frame"):
            list(iter_trace_v2(path))

    def test_wrong_version_in_header(self, tmp_path):
        payload = json.dumps({"version": 99, "n_threads": 1,
                              "initial": {}}).encode()
        path = tmp_path / "t.rpt"
        path.write_bytes(MAGIC + _FRAME_HEAD.pack(0x01, len(payload))
                         + payload + _FRAME_CRC.pack(zlib.crc32(payload)))
        with pytest.raises(TraceFormatError, match="version"):
            list(iter_trace_v2(path))

    def test_malformed_message_in_segment(self, tmp_path):
        header = json.dumps({"version": 2, "n_threads": 2,
                             "initial": {}}).encode()
        seg = gzip.compress(b'{"thread": 0}')  # missing clock/event
        blob = MAGIC
        for ftype, payload in ((0x01, header), (0x02, seg)):
            blob += (_FRAME_HEAD.pack(ftype, len(payload)) + payload
                     + _FRAME_CRC.pack(zlib.crc32(payload)))
        path = tmp_path / "t.rpt"
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="malformed message"):
            list(iter_trace_v2(path))

    #: Header defects every v2 reader must reject alike: (frames, error).
    BAD_HEADERS = {
        "wrong-version": (
            [frame(0x01, json.dumps({"version": 3, "n_threads": 1,
                                     "initial": {}}).encode())],
            "unsupported trace version 3"),
        "no-n_threads": (
            [frame(0x01, json.dumps({"version": 2,
                                     "initial": {}}).encode())],
            "lacks the mandatory 'n_threads'"),
        "non-integer-n_threads": (
            [frame(0x01, json.dumps({"version": 2, "n_threads": "two",
                                     "initial": {}}).encode())],
            "n_threads must be an integer"),
        "non-object": (
            [frame(0x01, b"[2, 1]")],
            "must be a JSON object"),
        "not-first": (
            [frame(0x02, gzip.compress(b"")),
             frame(0x01, json.dumps({"version": 2, "n_threads": 1,
                                     "initial": {}}).encode())],
            "first frame must be the header"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    @pytest.mark.parametrize("reader", [
        lambda p: list(iter_trace_v2(p)), read_trace_prefix, read_trace_meta,
    ], ids=["iter_trace_v2", "read_trace_prefix", "read_trace_meta"])
    def test_bad_header_rejected_by_every_reader(self, tmp_path, reader,
                                                 case):
        frames, problem = self.BAD_HEADERS[case]
        footer = frame(0x03, json.dumps({"events": 0,
                                         "segments": 0}).encode())
        path = tmp_path / "t.rpt"
        path.write_bytes(MAGIC + b"".join(frames) + footer)
        with pytest.raises(TraceFormatError, match=problem) as exc:
            reader(path)
        assert exc.value.offset == len(MAGIC)

    @pytest.mark.parametrize("reader", [
        lambda p: list(iter_trace_v2(p)), read_trace_meta,
    ], ids=["iter_trace_v2", "read_trace_meta"])
    def test_non_integer_footer_count(self, tmp_path, reader):
        header = json.dumps({"version": 2, "n_threads": 1,
                             "initial": {}}).encode()
        footer = json.dumps({"events": "0", "segments": 0}).encode()
        path = tmp_path / "t.rpt"
        path.write_bytes(MAGIC + frame(0x01, header) + frame(0x03, footer))
        with pytest.raises(TraceFormatError, match="footer events"):
            reader(path)

    def test_v1_error_spans_still_line_based(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("not json at all\n")
        with pytest.raises(TraceFormatError) as exc:
            list(iter_trace(path))
        assert exc.value.lineno == 1
