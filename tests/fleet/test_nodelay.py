"""Both legs of the fleet router run with Nagle's algorithm off: the
client's connection the router accepts, and the router's dial to a shard.
A spliced session's close frames cross both, so either leg left with
Nagle on would hold them for the peer's delayed ACK."""

import socket

from repro.fleet import AnalysisFleet, FleetConfig
from repro.fleet.router import FleetRouter
from repro.server import attach
from repro.workloads import XYZ_PROPERTY, XYZ_VARS


def _nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_both_router_legs_have_nodelay(xyz_execution, monkeypatch):
    legs = {"client": [], "shard": []}
    serve = FleetRouter._serve_connection
    dial = FleetRouter._shard_handshake

    def recording_serve(self, conn):
        legs["client"].append(_nodelay(conn))
        return serve(self, conn)

    def recording_dial(self, addr, frame):
        upstream = dial(self, addr, frame)
        if upstream is not None:
            legs["shard"].append(_nodelay(upstream[0]))
        return upstream

    monkeypatch.setattr(FleetRouter, "_serve_connection", recording_serve)
    monkeypatch.setattr(FleetRouter, "_shard_handshake", recording_dial)
    initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
    with AnalysisFleet(FleetConfig(shards=1, workers=1)) as fleet:
        session = attach(fleet.host, fleet.port,
                         n_threads=xyz_execution.n_threads,
                         initial=initial, spec=XYZ_PROPERTY)
        for m in xyz_execution.messages:
            session.send(m)
        assert session.close().state == "finished"
    assert legs == {"client": [True], "shard": [True]}
