"""Router end-to-end: unchanged clients, stride ids, spill, fleet status.

These spawn real shard processes (spawn context), so fleets here are
deliberately small: two shards, one worker each.
"""

import pytest

from repro.fleet import SESSION_STRIDE, AnalysisFleet, FleetConfig, \
    shard_of_session
from repro.server import ServerRejected, attach, fetch_status
from repro.workloads import XYZ_PROPERTY, XYZ_VARS


@pytest.fixture
def xyz_initial(xyz_execution):
    return {v: xyz_execution.initial_store[v] for v in XYZ_VARS}


def _stream(fleet, execution, initial, spec=XYZ_PROPERTY, **kw):
    session = attach(fleet.host, fleet.port, n_threads=execution.n_threads,
                     initial=initial, spec=spec, **kw)
    for m in execution.messages:
        session.send(m)
    return session


class TestRouting:
    def test_client_is_unchanged_and_verdicts_match(self, xyz_execution,
                                                    xyz_initial):
        from repro.observer import Observer

        obs = Observer(xyz_execution.n_threads, xyz_initial,
                       spec=XYZ_PROPERTY)
        for m in xyz_execution.messages:
            obs.receive(m)
        obs.finish()
        expected = sorted(v.pretty(tuple(sorted(xyz_initial)))
                          for v in obs.violations)

        config = FleetConfig(shards=2, workers=1)
        with AnalysisFleet(config) as fleet:
            session = _stream(fleet, xyz_execution, xyz_initial)
            # stride ids: the session id names its owning shard
            slot = shard_of_session(session.session_id)
            assert slot in (0, 1)
            verdict = session.close()
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected

    def test_status_aggregates_the_whole_fleet(self, xyz_execution,
                                               xyz_initial):
        config = FleetConfig(shards=2, workers=1)
        with AnalysisFleet(config) as fleet:
            verdict = _stream(fleet, xyz_execution, xyz_initial,
                              program="xyz").close()
            assert verdict.state == "finished"
            status = fetch_status(fleet.host, fleet.port)

            assert status["t"] == "status"
            router = status["fleet"]["router"]
            assert router["routed_sessions"] == 1
            assert router["spills"] == 0 or router["spills"] >= 0
            assert router["session_stride"] == SESSION_STRIDE
            rows = status["fleet"]["shards"]
            assert [r["shard"] for r in rows] == [0, 1]
            assert all(r["state"] == "up" for r in rows)
            assert all(r["generation"] == 1 for r in rows)
            # the synthesized server section sums shard capacity, so
            # `repro sessions` against a router keeps working unchanged
            assert status["server"]["max_sessions"] == \
                2 * config.max_sessions
            assert status["server"]["finished"] == 1
            (record,) = status["sessions"]
            assert record["program"] == "xyz"
            assert record["shard"] == shard_of_session(record["session"])

    def test_fleet_status_fetched_via_plain_fetch_status(self, xyz_execution,
                                                         xyz_initial):
        # same wire frame as a single daemon: one hello, one JSON line
        import json
        import socket

        from repro.server.protocol import Hello, encode_frame

        with AnalysisFleet(FleetConfig(shards=2, workers=1)) as fleet:
            with socket.create_connection((fleet.host, fleet.port)) as sock:
                sock.sendall(encode_frame(Hello(mode="status").to_frame()))
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
        assert data.count(b"\n") == 1
        doc = json.loads(data)
        assert doc["t"] == "status" and "fleet" in doc


class TestSpillAndSaturation:
    def test_spill_then_fleet_capacity_reject(self, xyz_execution,
                                              xyz_initial):
        # one slot per shard: the first two held-open sessions must land
        # on DISTINCT shards (spilling off a full preferred shard if the
        # ring hashes both to the same one); the third gets the fleet-wide
        # capacity reject
        config = FleetConfig(shards=2, workers=1, max_sessions=1,
                             status_ttl=0.05)
        with AnalysisFleet(config) as fleet:
            held = []
            try:
                for _ in range(2):
                    held.append(attach(
                        fleet.host, fleet.port,
                        n_threads=xyz_execution.n_threads,
                        initial=xyz_initial, spec=XYZ_PROPERTY))
                slots = {shard_of_session(s.session_id) for s in held}
                assert slots == {0, 1}

                with pytest.raises(ServerRejected) as exc:
                    attach(fleet.host, fleet.port,
                           n_threads=xyz_execution.n_threads,
                           initial=xyz_initial, spec=XYZ_PROPERTY)
                assert "capacity" in exc.value.reason

                router = fleet.status()["fleet"]["router"]
                assert router["rejects"] >= 1
                assert router["routed_sessions"] == 2
            finally:
                for s in held:
                    for m in xyz_execution.messages:
                        s.send(m)
                    assert s.close().state == "finished"

    def test_resume_rejects_foreign_session_id(self, xyz_execution,
                                               xyz_initial):
        # a resume for a session id outside any shard's stride range is
        # answered, not spliced into a random shard
        import socket

        from repro.server.protocol import Hello, encode_frame, \
            read_frame_line

        with AnalysisFleet(FleetConfig(shards=2, workers=1)) as fleet:
            hello = Hello(mode="resume", session=99 * SESSION_STRIDE + 1,
                          token="tok", epoch=1)
            with socket.create_connection((fleet.host, fleet.port)) as sock:
                sock.sendall(encode_frame(hello.to_frame()))
                reply = read_frame_line(sock)
        assert reply["t"] == "reject"
        assert reply["why"] == "resume"


class TestStartup:
    def test_failed_start_stops_the_shards_already_running(self,
                                                           monkeypatch):
        from repro.fleet.shards import ShardSupervisor

        spawn = ShardSupervisor._spawn
        started = []

        def slot_one_fails(self, index, generation, recover):
            if index == 1:
                raise RuntimeError("shard 1 failed to start: injected")
            handle = spawn(self, index, generation, recover)
            started.append(handle)
            return handle

        monkeypatch.setattr(ShardSupervisor, "_spawn", slot_one_fails)
        fleet = AnalysisFleet(FleetConfig(shards=2, workers=1))
        try:
            with pytest.raises(RuntimeError, match="injected"):
                fleet.start()
            [slot0] = started
            assert not slot0.proc.is_alive()
        finally:
            for handle in started:
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=5.0)
