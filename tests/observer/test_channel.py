"""Tests for message transports: FIFO, bounded reordering, multi-channel,
and the failure paths of the off-process wire."""

import pytest

from repro.observer.channel import (
    FifoChannel,
    MultiChannel,
    ReorderingChannel,
    deliver_all,
)

from ..conftest import sealed_record


def fake_messages(n, n_threads=2):
    from repro.core.algorithm_a import AlgorithmA

    algo = AlgorithmA(n_threads)
    for k in range(n):
        algo.on_write(k % n_threads, f"v{k % 3}", k)
    return algo.emitted[:n]


class TestFifo:
    def test_order_preserved(self):
        msgs = fake_messages(6)
        out = deliver_all(FifoChannel(), msgs)
        assert out == msgs

    def test_put_after_close_rejected(self):
        ch = FifoChannel()
        ch.close()
        with pytest.raises(RuntimeError):
            ch.put(fake_messages(1)[0])


class TestReordering:
    def test_delivers_everything_exactly_once(self):
        msgs = fake_messages(20)
        out = deliver_all(ReorderingChannel(seed=3, window=4), msgs)
        assert sorted(m.emit_index for m in out) == list(range(20))

    def test_actually_reorders(self):
        msgs = fake_messages(20)
        out = deliver_all(ReorderingChannel(seed=3, window=4), msgs)
        assert [m.emit_index for m in out] != list(range(20))

    def test_window_bounds_overtaking(self):
        """A message can be overtaken by at most window-1 later messages."""
        msgs = fake_messages(30)
        window = 4
        for seed in range(5):
            out = deliver_all(ReorderingChannel(seed=seed, window=window), msgs)
            pos = {m.emit_index: i for i, m in enumerate(out)}
            for k in range(30):
                assert pos[k] >= k - (window - 1), (seed, k)

    def test_unbounded_window(self):
        msgs = fake_messages(10)
        out = deliver_all(ReorderingChannel(seed=1, window=None), msgs)
        assert sorted(m.emit_index for m in out) == list(range(10))

    def test_seed_determinism(self):
        msgs = fake_messages(15)
        a = deliver_all(ReorderingChannel(seed=9, window=3), msgs)
        b = deliver_all(ReorderingChannel(seed=9, window=3), msgs)
        assert [m.emit_index for m in a] == [m.emit_index for m in b]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReorderingChannel(window=0)


class TestMultiChannel:
    def test_everything_delivered(self):
        msgs = fake_messages(12, n_threads=3)
        out = deliver_all(MultiChannel(k=3, seed=0), msgs)
        assert sorted(m.emit_index for m in out) == list(range(12))

    def test_per_thread_fifo_preserved(self):
        """Messages of one thread ride one FIFO sub-channel: their relative
        order survives."""
        msgs = fake_messages(20, n_threads=2)
        for seed in range(5):
            out = deliver_all(MultiChannel(k=2, seed=seed), msgs)
            for t in (0, 1):
                mine = [m.emit_index for m in out if m.thread == t]
                assert mine == sorted(mine), (seed, t)

    def test_round_robin_routing(self):
        msgs = fake_messages(9, n_threads=3)
        out = deliver_all(MultiChannel(k=2, seed=4, route_by_thread=False), msgs)
        assert len(out) == 9

    def test_needs_at_least_one_queue(self):
        with pytest.raises(ValueError):
            MultiChannel(k=0)


class TestSocketHardening:
    """The in-process channels above simulate delivery orders; a stream
    that leaves the process takes the one real wire, a reliable sender
    attached to an analysis server.  That wire must fail loudly and
    release its sockets on every path."""

    @staticmethod
    def _serve(records, **config):
        from repro.server import AnalysisServer, ServerConfig

        return AnalysisServer(ServerConfig(port=0, **config),
                              on_session_end=records.append)

    def test_never_connected_raises_and_frees_port(self):
        import socket as socketlib

        from repro.server import attach

        with self._serve([]) as srv:
            host, port = srv.host, srv.port
        # nobody listens any more: the sender fails at once, loudly
        with pytest.raises(ConnectionError):
            attach(host, port, n_threads=2, initial={"v0": 0},
                   connect_timeout=2.0)
        # the port must be reusable immediately — no leaked server socket
        srv = socketlib.create_server((host, port))
        srv.close()

    def test_mid_stream_silence_times_out(self):
        import socket as socketlib

        from repro.server.protocol import Hello, encode_frame, read_frame_line

        records = []
        with self._serve(records, io_timeout=0.2) as srv:
            # attach, then never send or close: a crashed sender
            sock = socketlib.create_connection((srv.host, srv.port))
            try:
                sock.sendall(encode_frame(Hello(
                    mode="attach", n_threads=2, initial={"v0": 0}
                ).to_frame()))
                assert read_frame_line(sock)["t"] == "helloack"
                record = sealed_record(records)
            finally:
                sock.close()
        assert record["state"] == "failed"
        assert "timed out" in record["error"]

    def test_malformed_line_recorded_and_raised_when_strict(self):
        from repro.observer.reliable import ReliableTransportError
        from repro.server import attach

        records = []
        with self._serve(records) as srv:
            session = attach(srv.host, srv.port, n_threads=2,
                             initial={"v0": 0})
            with pytest.raises(ReliableTransportError):
                with session:
                    session._sender._transmit(b"this is not json\n")
                    for m in fake_messages(3):
                        session.send(m)
            record = sealed_record(records)
        assert record["state"] == "failed"
        assert "not a JSON object" in record["error"]

    def test_context_managers_close_both_ends(self):
        import socket as socketlib

        from repro.server import attach

        msgs = fake_messages(4)
        with self._serve([]) as srv:
            with attach(srv.host, srv.port, n_threads=2,
                        initial={"v0": 0, "v1": 0, "v2": 0}) as session:
                for m in msgs:
                    session.send(m)
            host, port = srv.host, srv.port
        assert session.verdict.state == "finished"
        assert session.verdict.analyzed == 4
        # the socket is released once the ack reader lets go of it
        session._sender._ack_thread.join(5.0)
        assert session._sender._sock.fileno() == -1
        srv = socketlib.create_server((host, port))
        srv.close()
