"""Tests for the ack-based reliable transport over TCP."""

import itertools
import json
import random
import socket
import threading
import zlib

import pytest

from repro.observer import reliable
from repro.observer.reliable import (
    FrameDecoder,
    ReliableReceiver,
    ReliableSender,
    ReliableTransportError,
)
from repro.sched import RandomScheduler, run_program
from repro.workloads import random_program


@pytest.fixture
def messages():
    program = random_program(random.Random(11), n_threads=3, n_vars=3,
                             ops_per_thread=8, write_ratio=0.7)
    return run_program(program, RandomScheduler(11)).messages


def roundtrip(messages, **sender_kw):
    receiver = ReliableReceiver(accept_timeout=10.0)
    receiver.start()
    sender = ReliableSender("127.0.0.1", receiver.port, **sender_kw)
    for m in messages:
        sender.send(m)
    sender.close()
    got = receiver.wait(timeout=10.0)
    return got, sender, receiver


class TestCleanWire:
    def test_exactly_once_in_order(self, messages):
        got, sender, receiver = roundtrip(messages)
        assert [m.event.eid for m in got] == [m.event.eid for m in messages]
        assert receiver.duplicates == 0
        assert receiver.corrupt_frames == 0
        assert sender.retransmissions == 0

    def test_context_managers(self, messages):
        with ReliableReceiver(accept_timeout=10.0) as receiver:
            receiver.start()
            with ReliableSender("127.0.0.1", receiver.port) as sender:
                for m in messages[:4]:
                    sender.send(m)
            got = receiver.wait(timeout=10.0)
        assert len(got) == 4


class TestLossyDelivery:
    def test_window_backpressure(self, messages):
        """With window=1, a second send blocks until the first is acked —
        the sender buffer stays bounded."""
        got, sender, receiver = roundtrip(messages[:6], window=1)
        assert len(got) == 6
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[:6]]

    def test_heartbeats_flow_while_idle(self, messages):
        import time

        receiver = ReliableReceiver(accept_timeout=10.0)
        receiver.start()
        sender = ReliableSender("127.0.0.1", receiver.port,
                                heartbeat_interval=0.05)
        sender.send(messages[0])
        deadline = time.monotonic() + 5.0
        while receiver.heartbeats == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert sender.heartbeats_sent > 0
        assert receiver.heartbeats > 0
        assert receiver.last_heartbeat is not None
        sender.close()
        receiver.wait(timeout=10.0)


class TestReceiverErrors:
    def test_never_connected(self):
        receiver = ReliableReceiver(accept_timeout=0.2)
        receiver.start()
        with pytest.raises(ConnectionError, match="no sender connected"):
            receiver.wait(timeout=5.0)

    def test_wait_before_start(self):
        receiver = ReliableReceiver(accept_timeout=0.2)
        with pytest.raises(RuntimeError, match="start"):
            receiver.wait()
        receiver.close()

    def test_send_after_close_rejected(self, messages):
        receiver = ReliableReceiver(accept_timeout=10.0)
        receiver.start()
        sender = ReliableSender("127.0.0.1", receiver.port)
        sender.send(messages[0])
        sender.close()
        with pytest.raises(ReliableTransportError, match="closed"):
            sender.send(messages[1])
        receiver.wait(timeout=10.0)

    def test_on_message_callback_streams_in_order(self, messages):
        seen = []
        receiver = ReliableReceiver(accept_timeout=10.0,
                                    on_message=seen.append)
        receiver.start()
        with ReliableSender("127.0.0.1", receiver.port) as sender:
            for m in messages:
                sender.send(m)
        got = receiver.wait(timeout=10.0)
        assert seen == got
        assert [m.event.eid for m in seen] == \
            [m.event.eid for m in messages]


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


def _msg_line(seq, payload, crc=None):
    if crc is None:
        crc = zlib.crc32(payload.encode("utf-8"))
    return json.dumps({"t": "msg", "seq": seq, "crc": crc,
                       "payload": payload}) + "\n"


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
                with ReliableSender("127.0.0.1", server.getsockname()[1],
                                    window=4,
                                    heartbeat_interval=None) as sender:
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
                with ReliableSender("127.0.0.1", server.getsockname()[1],
                                    window=4,
                                    heartbeat_interval=None) as sender:
                    _send_until_error(sender, messages, budget=5.0)
        finally:
            server.close()

    def test_receiver_rejects_a_skipped_seq(self, messages):
        receiver = ReliableReceiver(accept_timeout=10.0)
        receiver.start()
        with socket.create_connection(("127.0.0.1", receiver.port)) as sock:
            sock.sendall((_msg_line(0, messages[0].to_json())
                          + _msg_line(2, messages[2].to_json())).encode())
            with pytest.raises(ReliableTransportError,
                               match="seq 2 skips ahead of seq 1"):
                receiver.wait(timeout=10.0)


class TestFrameDecoder:
    def test_corrupt_crc_raises_and_is_not_acked(self, messages):
        sent = []
        decoder = FrameDecoder(send=sent.append)
        payload = messages[0].to_json()
        with pytest.raises(ReliableTransportError, match="seq 0 failed its"):
            decoder.feed_line(_msg_line(0, payload, crc=1))
        assert decoder.corrupt_frames == 1 and sent == []
        assert decoder.delivered == 0

    def test_replayed_frames_are_reacked_once_delivered(self, messages):
        sent, got = [], []
        decoder = FrameDecoder(send=sent.append, on_message=got.append)
        lines = [_msg_line(i, m.to_json()) for i, m in enumerate(messages[:3])]
        for line in lines + lines[1:]:
            decoder.feed_line(line)
        assert [m.event.eid for m in got] == \
            [m.event.eid for m in messages[:3]]
        assert decoder.duplicates == 2
        assert [json.loads(b)["seq"] for b in sent] == [0, 1, 2, 1, 2]
