"""Incremental-journal primitives of the v2 format.

The crash-resilient server journals every session through
:meth:`SegmentWriter.checkpoint` and reads it back with
:func:`read_trace_prefix` / :func:`read_trace_meta`.  These tests pin the
contract those layers depend on: checkpointed events survive a torn tail,
footers carry the catalog extras, and prefix reading never trusts an
unverified frame.
"""

import struct

import pytest

from repro.observer.trace import TraceFormatError, read_trace
from repro.store.format import (
    MAGIC,
    SegmentWriter,
    read_trace_meta,
    read_trace_prefix,
)

from .conftest import run_workload

_FRAME_HEAD = struct.Struct("<BI")
_FRAME_CRC = struct.Struct("<I")


def _open_writer(tmp_path, execution, **kw):
    return SegmentWriter(tmp_path / "j.rpt", execution.n_threads,
                         execution.initial_store, program="xyz", **kw)


class TestCheckpoint:
    def test_checkpointed_prefix_is_readable_without_footer(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution, events_per_segment=1000)
        durable = 0
        for i, m in enumerate(execution.messages):
            w.write(m)
            if i == 1:
                durable = w.checkpoint()
        assert durable == 2
        # the writer never closed: no footer, but the checkpointed prefix
        # (plus anything flushed since) must read back intact
        prefix = read_trace_prefix(w.path)
        assert not prefix.complete
        assert prefix.footer is None
        assert len(prefix.messages) >= durable
        assert [m.to_json() for m in prefix.messages] == [
            m.to_json() for m in execution.messages[:len(prefix.messages)]]
        w._abandon()

    def test_checkpoint_counts_and_keeps_writer_open(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution)
        for m in execution.messages:
            w.write(m)
            assert w.checkpoint(fsync=False) == w.count
        w.close()
        trace = read_trace(w.path)
        assert len(trace.messages) == len(execution.messages)

    def test_checkpoint_after_close_raises(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution)
        w.close()
        with pytest.raises(RuntimeError):
            w.checkpoint()


class TestTornTail:
    def _journal(self, tmp_path, execution, keep):
        """Checkpoint after every event, then keep only ``keep`` bytes."""
        w = _open_writer(tmp_path, execution, events_per_segment=1000)
        for m in execution.messages:
            w.write(m)
            w.checkpoint(fsync=False)
        w._abandon()   # simulate a kill: no footer
        data = w.path.read_bytes()
        w.path.write_bytes(data[:keep])
        return w.path, data

    def test_mid_frame_kill_drops_only_the_torn_frame(self, tmp_path):
        execution, _ = run_workload("xyz")
        path, data = self._journal(tmp_path, execution, keep=len(MAGIC))
        # a torn *header* is unrecoverable by design; start chopping after
        # the first full frame and walk progressively longer prefixes: the
        # reader must never raise, never reorder, never go backwards
        _, header_len = _FRAME_HEAD.unpack_from(data, len(MAGIC))
        header_end = (len(MAGIC) + _FRAME_HEAD.size + header_len
                      + _FRAME_CRC.size)
        last = -1
        for keep in range(header_end, len(data) + 1,
                          max(1, len(data) // 40)):
            path.write_bytes(data[:keep])
            prefix = read_trace_prefix(path)
            got = [m.to_json() for m in prefix.messages]
            want = [m.to_json() for m in execution.messages[:len(got)]]
            assert got == want
            assert len(got) >= last   # monotone in the kept prefix
            last = len(got)
        path.write_bytes(data)
        assert (len(read_trace_prefix(path).messages)
                == len(execution.messages))

    def test_corrupt_byte_stops_at_crc(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution, events_per_segment=2)
        for m in execution.messages:
            w.write(m)
        w._abandon()
        data = bytearray(w.path.read_bytes())
        data[-3] ^= 0xFF   # flip a bit inside the last frame
        w.path.write_bytes(bytes(data))
        prefix = read_trace_prefix(w.path)
        assert not prefix.complete
        assert prefix.truncated_at is not None
        assert len(prefix.messages) < len(execution.messages)

    def test_not_a_trace_raises(self, tmp_path):
        path = tmp_path / "nope.rpt"
        path.write_bytes(b"definitely not a trace")
        with pytest.raises(TraceFormatError):
            read_trace_prefix(path)


class TestFooterCatalog:
    def test_close_extra_lands_in_footer_and_meta(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution)
        for m in execution.messages:
            w.write(m)
        extra = {"verdict": "violation", "violations": 2,
                 "program": "xyz", "counterexamples": ["x=1, y=0, z=1"]}
        w.close(extra=extra)

        prefix = read_trace_prefix(w.path)
        assert prefix.complete
        assert prefix.footer["catalog"] == extra

        meta = read_trace_meta(w.path)
        assert meta.catalog == extra
        assert meta.events == len(execution.messages)
        assert meta.header.program == "xyz"
        assert meta.segments >= 1

    def test_meta_requires_a_footer(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution)
        for m in execution.messages:
            w.write(m)
        w._abandon()
        with pytest.raises(TraceFormatError):
            read_trace_meta(w.path)

    def test_close_without_extra_has_no_catalog(self, tmp_path):
        execution, _ = run_workload("xyz")
        w = _open_writer(tmp_path, execution)
        w.close()
        assert read_trace_meta(w.path).catalog is None
