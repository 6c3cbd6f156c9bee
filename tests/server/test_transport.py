"""The served path's one resend mechanism: TCP plus the resume buffer.

A live TCP connection loses no frame, so the client sender keeps no
retransmission timer.  A frame the daemon cannot accept (one with a bad
CRC, or a payload that is not a message) is handled like a dropped
connection — a resumable session parks and the client's resume replays
it, any other session fails with a reason — and a clean session, however
slow the daemon is to ack, re-sends nothing.
"""

import json
import random
import time
import zlib

import pytest

from repro.observer import Observer
from repro.observer.reliable import ReliableTransportError
from repro.sched import RandomScheduler, run_program
from repro.server import AnalysisServer, ServerConfig, attach
from repro.server.protocol import Hello
from repro.server.session import Session
from repro.workloads import XYZ_PROPERTY, XYZ_VARS, random_program

from ..conftest import (
    RETIRED_TOLERANCE_KEY,
    SOUP_ENGINES,
    lock_soup,
    sealed_record,
)


def _rewrite_frame(sender, n, rewrite):
    """Make ``sender`` pass its ``n``-th data frame (0-based) through
    ``rewrite`` before it goes on the wire.  The first message always
    leaves alone, so frame 1 starts at seq 1."""
    transmit = sender._transmit
    seen = [0]

    def tampered(frame):
        if frame.startswith(b'{"t": "msgs"'):
            if seen[0] == n:
                frame = rewrite(frame)
            seen[0] += 1
        transmit(frame)

    sender._transmit = tampered


def _frame_bytes(d):
    return (json.dumps(d) + "\n").encode("utf-8")


def _bad_crc(frame):
    return frame.replace(b'"crc": ', b'"crc": 1', 1)


def _undecodable_payload(frame):
    """The frame with a first line that is not a message, under a valid
    CRC."""
    d = json.loads(frame)
    lines = d["payload"].split("\n")
    d["payload"] = "\n".join(['{"bogus": 1}'] + lines[1:])
    d["crc"] = zlib.crc32(d["payload"].encode("utf-8"))
    return _frame_bytes(d)


def _reference(execution, initial, spec=None, engines=None):
    """The in-process verdict: sorted counterexamples and final clocks."""
    obs = Observer(execution.n_threads, initial, spec=spec, engines=engines)
    obs.receive_batch(execution.messages)
    obs.finish()
    clocks = [[0] * execution.n_threads for _ in range(execution.n_threads)]
    for m in execution.messages:
        clocks[m.thread] = list(m.clock)
    return sorted(obs.counterexamples()), clocks


def _served(verdict):
    return sorted(verdict.counterexamples), [list(c)
                                             for c in verdict.final_clocks]


class TestCorruptFrame:
    def test_resume_replays_it_to_the_reference_verdict(self, xyz_execution):
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        config = ServerConfig(port=0, workers=1, resume_timeout=10.0)
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY,
                             reconnect=True)
            _rewrite_frame(session._sender, 1, _bad_crc)
            for m in xyz_execution.messages:
                session.send(m)
            verdict = session.close(timeout=30.0)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert _served(verdict) == _reference(xyz_execution, initial,
                                              spec=XYZ_PROPERTY)
        assert verdict.violations == 1
        assert session.reconnects == 1
        assert session._sender.retransmissions >= 1

    @pytest.mark.parametrize("resume_timeout", [0.0, 0.3],
                             ids=["no-resume", "resume-window"])
    def test_without_reconnect_it_fails_explicitly(self, xyz_execution,
                                                   resume_timeout):
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        records = []
        config = ServerConfig(port=0, workers=1,
                              resume_timeout=resume_timeout)
        with AnalysisServer(config, on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY)
            _rewrite_frame(session._sender, 1, _bad_crc)
            with pytest.raises(ReliableTransportError,
                               match="seq 1 failed its CRC"):
                with session:
                    for m in xyz_execution.messages:
                        session.send(m)
            deadline = time.monotonic() + 10.0
            while not records and time.monotonic() < deadline:
                time.sleep(0.02)
        [record] = records
        assert record["state"] == "failed"
        assert record["error"] == (
            "connection dropped on a bad frame: corrupt frame: seq 1 "
            "failed its CRC" if resume_timeout == 0 else
            f"client did not resume within {resume_timeout}s of "
            "disconnecting")


class TestUndecodablePayload:
    def test_fails_the_session_instead_of_skipping_it(self, xyz_execution):
        """A frame whose CRC matches but whose payload is not a message is
        never acked and skipped: a verdict over the rest of the stream
        would claim soundness it does not have."""
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        records = []
        with AnalysisServer(ServerConfig(port=0, workers=1),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY)
            _rewrite_frame(session._sender, 1, _undecodable_payload)
            with pytest.raises(ReliableTransportError):
                with session:
                    for m in xyz_execution.messages:
                        session.send(m)
            record = sealed_record(records)
        assert record["state"] == "failed"
        assert record["error"].startswith(
            "connection dropped on a bad frame: corrupt frame: "
            "seq 1 payload is not a message")


class TestFinCount:
    """TCP is ordered, so a fin arrives behind every data frame sent before
    it: a count other than the delivered one fails the session at once
    instead of leaving the client to wait out its close timeout."""

    @pytest.mark.parametrize("count", [5, 3], ids=["above", "below"])
    def test_a_wrong_count_fails_the_session_promptly(self, xyz_execution,
                                                      count):
        assert len(xyz_execution.messages) == 4
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        records = []
        with AnalysisServer(ServerConfig(port=0, workers=1),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY)
            transmit = session._sender._transmit

            def miscounted_fin(frame):
                if frame.startswith(b'{"t": "fin"'):
                    frame = _frame_bytes({"t": "fin", "count": count})
                transmit(frame)

            session._sender._transmit = miscounted_fin
            for m in xyz_execution.messages:
                session.send(m)
            started = time.monotonic()
            with pytest.raises(ReliableTransportError,
                               match=f"fin count {count} != delivered 4"):
                session.close(timeout=3.0)
            assert time.monotonic() - started < 1.0
            record = sealed_record(records)
        assert record["state"] == "failed"
        assert record["error"] == (
            f"connection dropped on a bad frame: fin count {count} != "
            f"delivered 4")


@pytest.fixture(params=[False, True], ids=["in-process", "supervised"])
def mode_config(request, tmp_path):
    """Server config for either execution mode of a session."""
    if request.param:
        return dict(supervised=True, checkpoint_dir=str(tmp_path / "ckpt"))
    return {}


class TestWithheldMessage:
    """Served sessions are strict.  The wire hands the observer every
    message it was sent, in order, so a stream with a causal hole (a
    client that skipped a message) ends with a message parked behind the
    gap, and the session fails with the observer's own reason instead of
    a verdict over part of the stream."""

    @pytest.mark.parametrize("old_client", [False, True],
                             ids=["hello", "hello-asking-for-tolerance"])
    def test_a_causal_hole_fails_the_session(self, xyz_execution,
                                             mode_config, old_client,
                                             monkeypatch):
        if old_client:
            # what an older client sends: the key is admitted and ignored
            to_frame = Hello.to_frame
            monkeypatch.setattr(Hello, "to_frame", lambda self: {
                **to_frame(self), RETIRED_TOLERANCE_KEY: True})
        initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
        records = []
        with AnalysisServer(ServerConfig(port=0, workers=1, **mode_config),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY)
            # message 1 (z=1, thread 1's first) precedes thread 1's x=1
            for i, m in enumerate(xyz_execution.messages):
                if i != 1:
                    session.send(m)
            started = time.monotonic()
            verdict = session.close(timeout=10.0)
            elapsed = time.monotonic() - started
            record = sealed_record(records)
        assert verdict.state == "failed"
        assert "stream closed with missing relevant messages" in verdict.error
        assert elapsed < 5.0
        assert record["state"] == "failed"
        assert record["error"] == verdict.error


def _firehose_sized():
    """8 threads x 16 variables, ~14k messages, no analysis."""
    program = random_program(random.Random(5), n_threads=8, n_vars=16,
                             ops_per_thread=3200, write_ratio=0.7)
    return run_program(program, RandomScheduler(5)), None


def _lattice_sized():
    """The served ``lattice`` workload's lock soup (~500 messages) through
    its three engines."""
    return lock_soup(0, 155), list(SOUP_ENGINES)


@pytest.mark.parametrize("make", [_firehose_sized, _lattice_sized],
                         ids=["firehose", "lattice"])
def test_clean_sessions_never_retransmit(make, monkeypatch):
    """The daemon's first analysis batch stalls, so its small queue fills
    and the reader stops acking for a while: a window that waits is
    backpressure, not loss, and nothing is re-sent."""
    execution, engines = make()
    process_batch = Session.process_batch
    stalled = []

    def slow_first_batch(self, *args, **kwargs):
        if not stalled:
            stalled.append(True)
            time.sleep(0.3)
        return process_batch(self, *args, **kwargs)

    monkeypatch.setattr(Session, "process_batch", slow_first_batch)
    initial = dict(execution.initial_store)
    config = ServerConfig(port=0, workers=1, max_queued_events=16,
                          drain_timeout=120.0)
    with AnalysisServer(config) as srv:
        session = attach(srv.host, srv.port, n_threads=execution.n_threads,
                         initial=initial, engines=engines)
        for m in execution.messages:
            session.send(m)
        verdict = session.close(timeout=120.0)
    assert stalled
    assert verdict.state == "finished"
    assert verdict.analyzed == len(execution.messages)
    assert session._sender.retransmissions == 0
    assert _served(verdict) == _reference(execution, initial,
                                          engines=engines)
