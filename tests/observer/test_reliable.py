"""Tests for the ack-based reliable transport over TCP.

The sender is exercised against a bare :class:`FrameDecoder` peer on the
other end of a socket pair (the transport contract on its own) and
against the analysis server, the one receiver it has in production.
"""

import itertools
import json
import random
import socket
import sys
import threading
import time
import zlib

import pytest

from repro.observer import Observer, reliable
from repro.observer.reliable import (
    FrameDecoder,
    ReliableSender,
    ReliableTransportError,
    RetransmitConfig,
)
from repro.sched import RandomScheduler, run_program
from repro.server import AnalysisServer, ServerConfig, attach
from repro.server.session import Session
from repro.workloads import XYZ_PROPERTY, XYZ_VARS, random_program

from ..conftest import sealed_record


@pytest.fixture
def execution():
    program = random_program(random.Random(11), n_threads=3, n_vars=3,
                             ops_per_thread=8, write_ratio=0.7)
    return run_program(program, RandomScheduler(11))


@pytest.fixture
def messages(execution):
    return execution.messages


def decoding_pair(config=None, hold_first_ack=None, frames=None):
    """A :class:`ReliableSender` on one end of a socket pair and a
    :class:`FrameDecoder` peer on the other that acks every frame and
    answers the fin.  With ``hold_first_ack`` (an event) the peer writes
    no ack until it is set; ``frames`` collects every data frame the peer
    reads.  Returns ``(sender, decoder, delivered, peer)``."""
    ours, theirs = socket.socketpair()
    delivered = []

    def send_ack(frame):
        if hold_first_ack is not None:
            hold_first_ack.wait(10.0)
        theirs.sendall(frame)

    decoder = FrameDecoder(send=send_ack,
                           on_message=lambda msg, _text: delivered.append(msg))

    def serve():
        with theirs, theirs.makefile("r", encoding="utf-8") as lines:
            for line in lines:
                if frames is not None and line.startswith('{"t": "msgs"'):
                    frames.append(json.loads(line))
                frame = decoder.feed_line(line)
                if frame is not None and frame["t"] == "fin":
                    theirs.sendall(b'{"t": "finack"}\n')

    peer = threading.Thread(target=serve, daemon=True)
    peer.start()
    return ReliableSender(sock=ours, config=config), decoder, delivered, peer


def roundtrip(messages, config=None):
    sender, decoder, delivered, peer = decoding_pair(config)
    for m in messages:
        sender.send(m)
    sender.close()
    peer.join(10.0)
    assert not peer.is_alive()
    return delivered, sender, decoder


def _xyz_initial(execution):
    return {v: execution.initial_store[v] for v in XYZ_VARS}


def _reference_counterexamples(execution):
    obs = Observer(execution.n_threads, _xyz_initial(execution),
                   spec=XYZ_PROPERTY)
    obs.receive_batch(execution.messages)
    obs.finish()
    return sorted(obs.counterexamples())


class TestCleanWire:
    def test_exactly_once_in_order(self, messages):
        got, sender, decoder = roundtrip(messages)
        assert [m.event.eid for m in got] == [m.event.eid for m in messages]
        assert decoder.complete
        assert decoder.duplicates == 0
        assert decoder.corrupt_frames == 0
        assert sender.retransmissions == 0

    def test_context_managers(self, messages):
        sender, _decoder, got, peer = decoding_pair()
        with sender:
            for m in messages[:4]:
                sender.send(m)
        peer.join(10.0)
        assert not peer.is_alive()
        assert len(got) == 4
        sender._ack_thread.join(5.0)
        assert sender._sock.fileno() == -1


class TestBatching:
    """A message goes out at once when no data frame is unacked; behind an
    unacked frame it joins a batch that the next ack sends."""

    def test_one_held_ack_makes_two_frames(self, messages):
        held = threading.Event()
        frames = []
        sender, decoder, got, peer = decoding_pair(hold_first_ack=held,
                                                   frames=frames)
        stream = list(itertools.islice(itertools.cycle(messages), 50))
        for m in stream:
            sender.send(m)
        held.set()
        sender.close()
        peer.join(10.0)
        assert not peer.is_alive()
        assert [(f["seq"], len(f["payload"].split("\n"))) for f in frames] \
            == [(0, 1), (1, 49)]
        assert [m.to_json() for m in got] == [m.to_json() for m in stream]
        assert decoder.complete

    def test_a_pending_batch_leaves_without_another_send(self, messages):
        held = threading.Event()
        sender, _decoder, got, peer = decoding_pair(hold_first_ack=held)
        sender.send(messages[0])
        sender.send(messages[1])    # behind the unacked first frame
        _wait_for(lambda: len(got) == 1)
        held.set()
        _wait_for(lambda: len(got) == 2)
        sender.close()
        peer.join(10.0)
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[:2]]

    def test_concurrent_flushes_keep_seq_order(self, messages):
        """The sending thread, the ack reader and the heartbeat timer all
        write; under a tiny switch interval, with more streams than cores,
        every frame still starts where the last one ended, and none
        carries more than the window."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            config = RetransmitConfig(window=8, heartbeat_interval=0.001)
            stream = list(itertools.islice(itertools.cycle(messages), 600))
            runs = []
            for _ in range(4):
                frames = []
                runs.append((decoding_pair(config, frames=frames), frames))

            def drive(sender):
                for m in stream:
                    sender.send(m)
                sender.close()

            threads = [threading.Thread(target=drive, args=(pair[0],),
                                        daemon=True)
                       for pair, _frames in runs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        for (_sender, decoder, got, peer), frames in runs:
            peer.join(10.0)
            assert not peer.is_alive() and decoder.complete
            assert [m.to_json() for m in got] == [m.to_json() for m in stream]
            starts = [f["seq"] for f in frames]
            ends = [f["seq"] + len(f["payload"].split("\n")) for f in frames]
            assert starts == [0] + ends[:-1] and ends[-1] == 600
            assert max(end - start for start, end in zip(starts, ends)) <= 8


class TestLossyDelivery:
    def test_window_backpressure(self, messages):
        """With window=1, a second send blocks until the first is acked —
        the sender buffer stays bounded."""
        got, _sender, _decoder = roundtrip(messages[:6],
                                           RetransmitConfig(window=1))
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[:6]]

    @staticmethod
    def _pause_mid_stream(execution, heartbeat_interval, records):
        """Stream the xyz run to a server with a 0.5 s read timeout,
        pausing 1.2 s after the first two messages."""
        config = ServerConfig(port=0, io_timeout=0.5)
        with AnalysisServer(config, on_session_end=records.append) as srv:
            session = attach(
                srv.host, srv.port, n_threads=execution.n_threads,
                initial=_xyz_initial(execution), spec=XYZ_PROPERTY,
                config=RetransmitConfig(heartbeat_interval=heartbeat_interval))
            with session:
                for i, m in enumerate(execution.messages):
                    if i == 2:
                        time.sleep(1.2)
                    session.send(m)
            sealed_record(records)
        return session

    def test_heartbeats_flow_while_idle(self, xyz_execution):
        """A sender that idles longer than the server's ``io_timeout``
        keeps its session alive with heartbeats."""
        records = []
        session = self._pause_mid_stream(xyz_execution, 0.1, records)
        assert session._sender.heartbeats_sent > 0
        assert session.verdict.state == "finished"
        assert session.verdict.analyzed == len(xyz_execution.messages)
        assert sorted(session.verdict.counterexamples) == \
            _reference_counterexamples(xyz_execution)
        assert records[0]["state"] == "finished"

    def test_idle_without_heartbeats_fails_the_session(self, xyz_execution):
        records = []
        with pytest.raises(ReliableTransportError):
            self._pause_mid_stream(xyz_execution, None, records)
        [record] = records
        assert record["state"] == "failed"
        assert "timed out" in record["error"]


class TestReceiverErrors:
    def test_never_connected(self):
        """A peer that connects but never says hello is dropped after the
        server's ``io_timeout``, and no session is created for it."""
        from repro.server import fetch_status

        with AnalysisServer(ServerConfig(port=0, io_timeout=0.2)) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
            status = fetch_status(srv.host, srv.port)
        assert status["sessions"] == []

    def test_send_after_close_rejected(self, messages):
        sender, _decoder, _got, peer = decoding_pair()
        sender.send(messages[0])
        sender.close()
        with pytest.raises(ReliableTransportError, match="closed"):
            sender.send(messages[1])
        peer.join(10.0)
        assert not peer.is_alive()

    def test_on_message_callback_streams_in_order(self, execution,
                                                  monkeypatch):
        """The server's decoder hands each message to the session in send
        order, once."""
        seen = []
        enqueue = Session.enqueue

        def record(self, msg, timeout, text=None):
            seen.append(msg)
            return enqueue(self, msg, timeout, text)

        monkeypatch.setattr(Session, "enqueue", record)
        with AnalysisServer(ServerConfig(port=0)) as srv:
            with attach(srv.host, srv.port, n_threads=execution.n_threads,
                        initial=dict(execution.initial_store)) as session:
                for m in execution.messages:
                    session.send(m)
        assert session.verdict.analyzed == len(execution.messages)
        assert [m.event.eid for m in seen] == \
            [m.event.eid for m in execution.messages]


def _peer(handle):
    """A bare TCP peer: accepts one connection and runs ``handle`` on it."""
    server = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = server.accept()
        with conn:
            handle(conn)

    threading.Thread(target=run, daemon=True).start()
    return server


def _drain(conn):
    try:
        while conn.recv(65536):
            pass
    except OSError:
        pass


def _send_until_error(sender, messages, budget=10.0):
    """Stream ``messages`` round and round from a helper thread and re-raise
    the error that stopped it; fail if it was still sending (or blocked)
    after ``budget`` seconds."""
    box = {}

    def run():
        try:
            for m in itertools.cycle(messages):
                sender.send(m)
        except ReliableTransportError as exc:
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(budget)
    assert not t.is_alive(), f"send still running after {budget}s"
    raise box["error"]


def _quiet_sender(server):
    """A window-4, heartbeat-free sender dialled to ``server``."""
    sock = socket.create_connection(server.getsockname())
    return ReliableSender(sock=sock, config=RetransmitConfig(
        window=4, heartbeat_interval=None))


def _msgs_line(seq, *payloads, crc=None):
    """A batch data frame carrying ``payloads`` from ``seq`` on."""
    payload = "\n".join(payloads)
    if crc is None:
        crc = zlib.crc32(payload.encode("utf-8"))
    return json.dumps({"t": "msgs", "seq": seq, "crc": crc,
                       "payload": payload}) + "\n"


def _wait_for(predicate, budget=10.0):
    deadline = time.monotonic() + budget
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


class TestBrokenConnection:
    """No retransmission timer: whatever a live TCP connection cannot lose
    must fail loudly instead."""

    def test_peer_closing_mid_stream_makes_send_raise(self, messages):
        def half_close(conn):
            conn.recv(1)                   # the stream has started
            conn.shutdown(socket.SHUT_WR)  # EOF to the sender, no finack
            _drain(conn)

        server = _peer(half_close)
        try:
            with pytest.raises(ReliableTransportError,
                               match="closed before the finack"):
                with _quiet_sender(server) as sender:
                    _send_until_error(sender, messages)
        finally:
            server.close()

    def test_peer_that_never_acks_makes_send_raise(self, messages,
                                                   monkeypatch):
        monkeypatch.setattr(reliable, "SEND_WAIT_TIMEOUT", 0.3)
        server = _peer(_drain)
        try:
            with pytest.raises(ReliableTransportError,
                               match="no ack for frame seq 0 within 0.3s"):
                with _quiet_sender(server) as sender:
                    _send_until_error(sender, messages, budget=5.0)
        finally:
            server.close()

    @staticmethod
    def _answering(reply):
        """A peer that answers the first data it reads with ``reply``."""
        def handle(conn):
            conn.recv(1)
            conn.sendall(reply)
            _drain(conn)
        return handle

    def test_a_reverse_line_that_is_not_json_fails_the_sender(self, messages):
        server = _peer(self._answering(b"not json\n"))
        try:
            with pytest.raises(ReliableTransportError,
                               match="'not json' is not a JSON object"):
                with _quiet_sender(server) as sender:
                    _send_until_error(sender, messages)
        finally:
            server.close()

    def test_an_ack_for_a_seq_never_sent_fails_the_sender(self, messages):
        server = _peer(self._answering(b'{"t": "ack", "seq": 5}\n'))
        try:
            with pytest.raises(ReliableTransportError,
                               match=r"bad ack from the receiver: seq 5, "
                                     r"but 1 message\(s\) were sent"):
                with _quiet_sender(server) as sender:
                    _send_until_error(sender, messages)
        finally:
            server.close()

    def test_receiver_rejects_a_skipped_seq(self, xyz_execution):
        records = []
        with AnalysisServer(ServerConfig(port=0),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=_xyz_initial(xyz_execution),
                             spec=XYZ_PROPERTY)
            sender = session._sender
            transmit = sender._transmit
            frames = []

            def skip_second(frame):
                if frame.startswith(b'{"t": "msgs"'):
                    frames.append(frame)
                    if len(frames) == 2:
                        return
                transmit(frame)

            sender._transmit = skip_second
            first, second, *rest = xyz_execution.messages
            with pytest.raises(ReliableTransportError):
                with session:
                    session.send(first)
                    _wait_for(lambda: sender._acked == 1)
                    session.send(second)    # alone in the dropped frame
                    for m in rest:          # pending behind it until close
                        session.send(m)
            record = sealed_record(records)
        assert len(frames) == 3
        assert record["state"] == "failed"
        assert "frame seq 2 skips ahead of seq 1" in record["error"]


class TestFrameDecoder:
    def test_corrupt_crc_raises_and_is_not_acked(self, messages):
        sent = []
        decoder = FrameDecoder(send=sent.append)
        payload = messages[0].to_json()
        with pytest.raises(ReliableTransportError, match="seq 0 failed its"):
            decoder.feed_line(_msgs_line(0, payload, crc=1))
        assert decoder.corrupt_frames == 1 and sent == []
        assert decoder.delivered == 0

    def test_undecodable_payload_raises_and_is_not_acked(self, messages):
        sent, got = [], []
        decoder = FrameDecoder(
            send=sent.append, on_message=lambda msg, _text: got.append(msg))
        decoder.feed_line(_msgs_line(0, messages[0].to_json()))
        with pytest.raises(ReliableTransportError,
                           match="seq 1 payload is not a message"):
            decoder.feed_line(_msgs_line(1, '{"bogus": 1}'))
        assert decoder.corrupt_frames == 1
        assert [json.loads(b)["seq"] for b in sent] == [0]
        assert len(got) == 1 and decoder.delivered == 1

    def test_payload_handed_over_is_one_ascii_line(self, messages):
        """Stores write each payload as one line of a trace segment, so a
        payload line broken by raw carriage returns, or with raw
        non-ASCII, is handed over in its canonical encoding instead."""
        got = []
        decoder = FrameDecoder(send=lambda _: None,
                               on_message=lambda m, text: got.append(text))
        canonical = messages[0].to_json()
        decoder.feed_line(_msgs_line(0, canonical))
        spread = json.dumps(json.loads(messages[1].to_json())).replace(
            ", ", ",\r")
        decoder.feed_line(_msgs_line(1, spread))
        doc = json.loads(messages[2].to_json())
        doc["label"] = "x\u2028y"
        decoder.feed_line(_msgs_line(2, json.dumps(doc, ensure_ascii=False)))
        assert got[0] == canonical
        assert got[1] == messages[1].to_json()
        assert json.loads(got[2])["label"] == "x\u2028y"
        assert all(text.isascii() and len(text.splitlines()) == 1
                   for text in got)

    def test_replayed_frames_are_reacked_once_delivered(self, messages):
        sent, got = [], []
        decoder = FrameDecoder(
            send=sent.append, on_message=lambda msg, _text: got.append(msg))
        lines = [_msgs_line(i, m.to_json()) for i, m in enumerate(messages[:3])]
        for line in lines + lines[1:]:
            decoder.feed_line(line)
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[:3]]
        assert decoder.duplicates == 2
        assert [json.loads(b)["seq"] for b in sent] == [0, 1, 2, 1, 2]

    def test_a_replay_straddling_start_seq_delivers_its_suffix(self,
                                                                messages):
        sent, got = [], []
        decoder = FrameDecoder(
            send=sent.append, on_message=lambda msg, _text: got.append(msg),
            start_seq=2)
        decoder.feed_line(_msgs_line(
            0, *(m.to_json() for m in messages[:5])))
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[2:5]]
        assert decoder.duplicates == 2 and decoder.delivered == 5
        assert [json.loads(b)["seq"] for b in sent] == [4]

    def test_a_corrupt_middle_line_delivers_none_of_the_batch(self,
                                                              messages):
        sent, got = [], []
        decoder = FrameDecoder(
            send=sent.append, on_message=lambda msg, _text: got.append(msg))
        with pytest.raises(ReliableTransportError,
                           match="seq 1 payload is not a message"):
            decoder.feed_line(_msgs_line(0, messages[0].to_json(),
                                         '{"bogus": 1}',
                                         messages[2].to_json()))
        assert got == [] and sent == []
        assert decoder.delivered == 0 and decoder.corrupt_frames == 1
