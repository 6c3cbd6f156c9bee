"""Session-frame protocol: hello validation and framing."""

import json
import socket
import threading
import time

import pytest

from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Hello,
    ProtocolError,
    encode_frame,
    read_frame_line,
)


class TestHello:
    def test_attach_round_trip(self):
        h = Hello(mode="attach", program="xyz", n_threads=2,
                  initial={"x": -1, "y": 0}, spec="x > 0",
                  fault_tolerant=True)
        d = json.loads(encode_frame(h.to_frame()))
        assert d["t"] == "hello"
        assert d["v"] == PROTOCOL_VERSION
        assert Hello.from_frame(d) == h

    def test_status_round_trip(self):
        h = Hello(mode="status")
        assert Hello.from_frame(h.to_frame()) == h

    def test_status_frame_omits_session_params(self):
        d = Hello(mode="status").to_frame()
        assert "n_threads" not in d and "initial" not in d

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProtocolError, match="mode"):
            Hello(mode="stream")

    def test_attach_needs_threads(self):
        with pytest.raises(ProtocolError, match="n_threads"):
            Hello(mode="attach", n_threads=0)

    def test_version_mismatch_rejected(self):
        d = Hello(mode="status").to_frame()
        d["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            Hello.from_frame(d)

    def test_a_v1_hello_is_rejected_naming_both_versions(self):
        """Version 1 streamed one ``msg`` frame per message; a v1 client
        gets a handshake reject, not a frame error mid-stream."""
        from repro.server import AnalysisServer, ServerConfig

        hello = Hello(mode="attach", n_threads=2, initial={"x": 0}).to_frame()
        hello["v"] = 1
        with AnalysisServer(ServerConfig(port=0)) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.settimeout(10.0)
                sock.sendall(encode_frame(hello))
                reply = read_frame_line(sock)
        assert PROTOCOL_VERSION == 2
        assert reply["t"] == "reject" and reply["why"] == "bad-hello"
        assert ("protocol version 1 not supported (this server speaks "
                "version 2)") in reply["reason"]

    def test_wrong_frame_type_rejected(self):
        with pytest.raises(ProtocolError, match="hello"):
            Hello.from_frame({"t": "msgs", "v": PROTOCOL_VERSION})

    @pytest.mark.parametrize("patch, match", [
        ({"n_threads": "two"}, "n_threads"),
        ({"initial": [1, 2]}, "initial"),
        ({"spec": 7}, "spec"),
        ({"program": 7}, "program"),
    ])
    def test_malformed_attach_fields(self, patch, match):
        d = Hello(mode="attach", n_threads=2, initial={"x": 0}).to_frame()
        d.update(patch)
        with pytest.raises(ProtocolError, match=match):
            Hello.from_frame(d)


class _CountingSocket:
    """Forwards ``recv`` to a real socket and counts the calls."""

    def __init__(self, sock):
        self.sock = sock
        self.recvs = 0

    def recv(self, n, flags=0):
        self.recvs += 1
        return self.sock.recv(n, flags)


def _tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        a = socket.create_connection(listener.getsockname())
        b, _ = listener.accept()
    return a, b


class TestReadFrameLine:
    def _pipe(self):
        a, b = socket.socketpair()
        return a, b

    def test_one_segment_line_takes_two_recvs(self):
        a, b = self._pipe()
        try:
            a.sendall(encode_frame({"t": "helloack", "pad": "x" * 150}))
            counting = _CountingSocket(b)
            assert read_frame_line(counting)["t"] == "helloack"
            assert counting.recvs == 2   # one peek, one exact read
        finally:
            a.close(); b.close()

    def test_data_frame_behind_helloack_stays_in_tcp_socket(self):
        a, b = _tcp_pair()
        try:
            data = b'{"t":"msgs","seq":0}\n'
            a.sendall(encode_frame({"t": "helloack", "session": 7}) + data)
            assert read_frame_line(b) == {"t": "helloack", "session": 7}
            b.settimeout(5.0)
            got = b""
            while len(got) < len(data):
                got += b.recv(len(data) - len(got))
            assert got == data
        finally:
            a.close(); b.close()

    def test_line_split_across_tcp_writes(self):
        a, b = _tcp_pair()
        a.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        line = encode_frame({"t": "hello", "program": "xyz" * 40})
        pieces = [line[:5], line[5:60], line[60:]]

        def feed():
            for piece in pieces:
                a.sendall(piece)
                time.sleep(0.02)

        try:
            t = threading.Thread(target=feed, daemon=True)
            t.start()
            b.settimeout(5.0)
            assert read_frame_line(b) == json.loads(line)
            t.join(5.0)
            assert not t.is_alive()
        finally:
            a.close(); b.close()

    def test_reads_exactly_one_line(self):
        a, b = self._pipe()
        try:
            a.sendall(b'{"t":"helloack","session":1}\n{"t":"ack","seq":0}\n')
            d = read_frame_line(b)
            assert d == {"t": "helloack", "session": 1}
            # the second line must still be in the socket, untouched
            assert b.recv(64).startswith(b'{"t":"ack"')
        finally:
            a.close(); b.close()

    def test_eof_mid_line(self):
        a, b = self._pipe()
        try:
            a.sendall(b'{"t":"hel')
            a.close()
            with pytest.raises(ProtocolError, match="closed"):
                read_frame_line(b)
        finally:
            b.close()

    def test_oversize_line(self):
        a, b = self._pipe()
        try:
            def feed():
                try:
                    a.sendall(b"x" * 4096)
                except OSError:
                    pass
            t = threading.Thread(target=feed, daemon=True)
            t.start()
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame_line(b, max_bytes=1024)
            t.join()
        finally:
            a.close(); b.close()

    def test_non_object_frame(self):
        a, b = self._pipe()
        try:
            a.sendall(b"[1,2,3]\n")
            with pytest.raises(ProtocolError, match="object"):
                read_frame_line(b)
        finally:
            a.close(); b.close()

    def test_bad_json(self):
        a, b = self._pipe()
        try:
            a.sendall(b"{broken\n")
            with pytest.raises(ProtocolError, match="JSON"):
                read_frame_line(b)
        finally:
            a.close(); b.close()

    def test_default_bound_is_sane(self):
        assert MAX_FRAME_BYTES >= 65536
