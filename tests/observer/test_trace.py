"""Trace file reads (v1 from a committed fixture, v2 as written today)
and the writer's durability contract."""

import json
import shutil

import pytest

from repro.core.events import Message
from repro.observer.trace import (
    Trace,
    TraceFormatError,
    TraceHeader,
    iter_trace,
    read_trace,
    trace_version,
)
from repro.sched import FixedScheduler, run_program
from repro.store.format import SegmentWriter
from repro.workloads import XYZ_OBSERVED_SCHEDULE, xyz_program

from ..conftest import V1_XYZ_TRACE as V1_XYZ


@pytest.fixture
def v1_trace(tmp_path):
    """A private copy of the v1 fixture, safe to append to or truncate."""
    path = tmp_path / "t.trace"
    shutil.copyfile(V1_XYZ, path)
    return path


class TestRoundTrip:
    def test_write_read(self, xyz_execution):
        trace = read_trace(V1_XYZ)
        assert trace.n_threads == 2
        assert trace.program == "xyz"
        assert trace.initial == dict(xyz_execution.initial_store)
        assert [m.event.eid for m in trace.messages] == [
            m.event.eid for m in xyz_execution.messages]
        assert [tuple(m.clock) for m in trace.messages] == [
            tuple(m.clock) for m in xyz_execution.messages]

    def test_streaming_writer_as_sink(self, tmp_path):
        path = tmp_path / "stream.rpt"
        with SegmentWriter(path, 2, {"x": -1, "y": 0, "z": 0},
                           program="xyz") as w:
            run_program(xyz_program(), FixedScheduler(XYZ_OBSERVED_SCHEDULE),
                        sink=w.write)
        trace = read_trace(path)
        assert len(trace.messages) == 4

    def test_analysis_from_trace(self):
        from repro.lattice import LevelByLevelBuilder
        from repro.logic import Monitor
        from repro.workloads import XYZ_PROPERTY

        trace = read_trace(V1_XYZ)
        monitor = Monitor(XYZ_PROPERTY)
        initial = {v: trace.initial[v] for v in sorted(monitor.variables)}
        b = LevelByLevelBuilder(trace.n_threads, initial, monitor)
        b.feed_many(trace.messages)
        b.finish()
        assert len(b.violations) == 1


class TestIterTrace:
    """Streaming reads: header first, then messages, incrementally."""

    def test_yields_header_then_messages(self, xyz_execution):
        stream = iter_trace(V1_XYZ)
        header = next(stream)
        assert isinstance(header, TraceHeader)
        assert header.n_threads == 2
        assert header.program == "xyz"
        assert header.version == 1
        messages = list(stream)
        assert all(isinstance(m, Message) for m in messages)
        assert [m.to_json() for m in messages] == [
            m.to_json() for m in xyz_execution.messages]

    def test_is_lazy(self, v1_trace):
        stream = iter_trace(v1_trace)
        next(stream)                       # header parsed...
        next(stream)                       # ...one message parsed...
        v1_trace.write_text("")            # generator holds its own handle
        stream.close()                     # no error: nothing read eagerly

    def test_bad_file_raises_on_first_next(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("broken\n")
        with pytest.raises(TraceFormatError):
            next(iter_trace(path))

    def test_skips_blank_lines(self, v1_trace):
        with open(v1_trace, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        assert sum(isinstance(i, Message) for i in iter_trace(v1_trace)) == 4

    def test_trace_version_sniffs_v1(self):
        assert trace_version(V1_XYZ) == 1

    def test_header_validation(self):
        with pytest.raises(ValueError):
            TraceHeader(n_threads=0)


class TestWriterDurability:
    """The trace writer (:class:`SegmentWriter`): close() flushes and
    fsyncs; every error path still closes the handle, without an fsync."""

    def test_close_fsyncs(self, tmp_path, xyz_execution, monkeypatch):
        import repro.store.format as format_mod

        synced = []
        real_fsync = format_mod.os.fsync
        monkeypatch.setattr(format_mod.os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        w = SegmentWriter(tmp_path / "t.rpt", 2, {})
        w.write(xyz_execution.messages[0])
        w.close()
        assert len(synced) == 1

    def test_close_idempotent(self, tmp_path, monkeypatch):
        import repro.store.format as format_mod

        synced = []
        real_fsync = format_mod.os.fsync
        monkeypatch.setattr(format_mod.os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        w = SegmentWriter(tmp_path / "t.rpt", 2, {})
        w.close()
        w.close()               # a no-op: no second fsync, no error
        assert len(synced) == 1

    def test_exit_closes_handle_on_error(self, tmp_path, xyz_execution):
        with pytest.raises(RuntimeError, match="boom"):
            with SegmentWriter(tmp_path / "t.rpt", 2, {}) as w:
                w.write(xyz_execution.messages[0])
                raise RuntimeError("boom")
        assert w._fh is None
        with pytest.raises(RuntimeError, match="closed"):
            w.write(xyz_execution.messages[0])

    def test_exit_on_error_skips_fsync(self, tmp_path, monkeypatch):
        import repro.store.format as format_mod

        monkeypatch.setattr(
            format_mod.os, "fsync",
            lambda fd: (_ for _ in ()).throw(AssertionError("fsync called")))
        with pytest.raises(RuntimeError, match="boom"):
            with SegmentWriter(tmp_path / "t.rpt", 2, {}):
                raise RuntimeError("boom")

    def test_failed_write_abandons_writer(self, tmp_path):
        w = SegmentWriter(tmp_path / "t.rpt", 2, {})
        with pytest.raises(AttributeError):
            w.write(object())   # not a Message: to_json missing
        assert w._fh is None    # handle closed, not leaked

    def test_unserializable_initial_closes_handle(self, tmp_path,
                                                  monkeypatch):
        import builtins

        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", spy)
        with pytest.raises(TypeError):
            SegmentWriter(tmp_path / "t.rpt", 2, {"x": object()})
        assert opened and all(fh.closed for fh in opened)


class TestValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"thread": 0}\n')
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.trace"
        path.write_text(json.dumps({"type": "header", "version": 99,
                                    "n_threads": 1, "initial": {}}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_trace(path)

    def test_write_after_close(self, tmp_path, xyz_execution):
        path = tmp_path / "t.rpt"
        w = SegmentWriter(path, 2, {})
        w.close()
        with pytest.raises(RuntimeError):
            w.write(xyz_execution.messages[0])
        assert read_trace(path).messages == []   # the rejected write left
                                                 # the sealed file intact

    def test_trace_dataclass_validation(self):
        with pytest.raises(ValueError):
            Trace(n_threads=0, initial={}, messages=[])


class TestTraceFormatError:
    """Malformed files raise TraceFormatError naming file and line."""

    @staticmethod
    def _good_header():
        return json.dumps({"type": "header", "version": 1, "n_threads": 2,
                           "initial": {"x": 0}}) + "\n"

    def test_is_a_value_error(self):
        assert issubclass(TraceFormatError, ValueError)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("not json at all\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.lineno == 1
        assert exc.value.path == str(path)
        assert "not valid JSON" in exc.value.problem
        assert str(path) + ":1:" in str(exc.value)

    def test_bad_n_threads_type(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(json.dumps({"type": "header", "version": 1,
                                    "n_threads": "two", "initial": {}}) + "\n")
        with pytest.raises(TraceFormatError, match="n_threads"):
            read_trace(path)

    def test_header_missing_initial(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(json.dumps({"type": "header", "version": 1,
                                    "n_threads": 2}) + "\n")
        with pytest.raises(TraceFormatError, match="'initial'"):
            read_trace(path)

    def test_message_line_not_json(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(self._good_header() + "{truncated\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.lineno == 2

    def test_message_line_missing_field(self, tmp_path, xyz_execution):
        path = tmp_path / "t.trace"
        good = json.loads(xyz_execution.messages[0].to_json())
        del good["clock"]
        path.write_text(self._good_header() + json.dumps(good) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.lineno == 2
        assert "clock" in exc.value.problem

    def test_line_number_counts_from_header(self, tmp_path, xyz_execution):
        path = tmp_path / "t.trace"
        lines = [self._good_header()]
        lines += [m.to_json() + "\n" for m in xyz_execution.messages[:2]]
        lines.append("broken\n")
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        assert exc.value.lineno == 4
