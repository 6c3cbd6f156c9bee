"""Served-path sockets run with Nagle's algorithm off.

A session's last frames are small (``fin`` one way, ``result`` and
``finack`` the other).  With Nagle on, the second of two back-to-back
small writes waits for the ACK of the first, which the peer delays by at
least 40 ms, so every session's close took that long whatever the
analysis cost.
"""

import socket
import statistics
import time

from repro.server import AnalysisServer, ServerConfig, attach
from repro.server.protocol import set_nodelay
from repro.workloads import XYZ_PROPERTY, XYZ_VARS

#: Well under Linux's 40 ms minimum delayed-ACK timeout, which a close
#: held back by Nagle cannot beat.
CLOSE_P50_BOUND_MS = 25.0


def _nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def _xyz_session(srv, execution):
    initial = {v: execution.initial_store[v] for v in XYZ_VARS}
    session = attach(srv.host, srv.port, n_threads=execution.n_threads,
                     initial=initial, spec=XYZ_PROPERTY, program="xyz")
    for m in execution.messages:
        session.send(m)
    return session


def test_set_nodelay_sets_the_option():
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            socket.create_connection(listener.getsockname()) as sock:
        assert not _nodelay(sock)   # the kernel default: Nagle on
        set_nodelay(sock)
        assert _nodelay(sock)


def test_client_socket_has_nodelay(xyz_execution):
    with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
        session = _xyz_session(srv, xyz_execution)
        assert _nodelay(session._sender._sock)
        assert session.close().state == "finished"


def test_daemon_accepted_socket_has_nodelay(xyz_execution, monkeypatch):
    accepted = []
    serve = AnalysisServer._serve_connection

    def recording(self, conn, addr):
        accepted.append(_nodelay(conn))
        return serve(self, conn, addr)

    monkeypatch.setattr(AnalysisServer, "_serve_connection", recording)
    with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
        assert _xyz_session(srv, xyz_execution).close().state == "finished"
    assert accepted == [True]


def test_close_is_not_held_by_delayed_ack(xyz_execution):
    """Back-to-back xyz sessions: the close -> verdict median stays far
    below the delayed-ACK minimum (it sat just above it with Nagle on)."""
    close_ms = []
    with AnalysisServer(ServerConfig(port=0, workers=1)) as srv:
        for _ in range(12):
            session = _xyz_session(srv, xyz_execution)
            t0 = time.perf_counter()
            verdict = session.close()
            close_ms.append((time.perf_counter() - t0) * 1e3)
            assert verdict.state == "finished" and verdict.violations == 1
    assert statistics.median(close_ms) < CLOSE_P50_BOUND_MS, close_ms
