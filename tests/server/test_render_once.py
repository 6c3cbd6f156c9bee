"""A finished session's verdict is rendered once.

Rendering a counterexample walks a path through the whole run, so it is
the dominant cost of a result.  The analysis worker renders every engine's
findings once, right after ``finish()``; the result frame, the sealed
record and the archive commit read that value, and a ``status()`` poll of
a live session renders nothing.
"""

import sys
import threading
import time

import pytest

from repro.engines import AtomicityEngine, LtlEngine, PatternEngine
from repro.server import AnalysisServer, ServerConfig, attach
from repro.workloads import XYZ_PROPERTY, XYZ_VARS

from ..conftest import SOUP_ENGINES, lock_soup


@pytest.fixture
def render_calls(monkeypatch):
    """Count ``counterexamples()`` calls per engine name."""
    calls = {}
    for cls in (LtlEngine, AtomicityEngine, PatternEngine):
        def counted(self, _render=cls.counterexamples, _name=cls.name):
            calls[_name] = calls.get(_name, 0) + 1
            return _render(self)
        monkeypatch.setattr(cls, "counterexamples", counted)
    return calls


def _poll_analyzed(server, session_id, n, timeout=20.0):
    deadline = time.monotonic() + timeout
    while True:
        [row] = [r for r in server.status()["sessions"]
                 if r["session"] == session_id]
        if row["analyzed"] >= n or time.monotonic() > deadline:
            return row
        time.sleep(0.05)


@pytest.mark.parametrize("archive", [False, True],
                         ids=["no-archive", "archive"])
def test_each_engine_renders_once_per_session(tmp_path, render_calls,
                                              archive):
    execution = lock_soup(1)
    half = len(execution.messages) // 2
    config = ServerConfig(
        port=0, workers=1, drain_timeout=60.0,
        archive_dir=str(tmp_path / "arch") if archive else None)
    with AnalysisServer(config) as srv:
        session = attach(srv.host, srv.port, n_threads=execution.n_threads,
                         initial=dict(execution.initial_store),
                         program="soup", engines=list(SOUP_ENGINES))
        for m in execution.messages[:half]:
            session.send(m)
        row = _poll_analyzed(srv, session.session_id, half)
        assert row["analyzed"] >= half
        assert row["violations"] > 0
        assert row["counterexamples"] == [] and row["engines"] == []
        assert render_calls == {}
        for m in execution.messages[half:]:
            session.send(m)
        verdict = session.close(timeout=60.0)
        srv.status()
    assert verdict.state == "finished"
    assert verdict.counterexamples
    assert render_calls == {"ltl": 1, "atomicity": 1, "pattern": 1}


def test_status_polls_race_finishing_sessions(xyz_execution):
    """Rows are built outside the server lock while sessions finish and
    seal: every poll lists each session once, and a finished row always
    carries its verdict (built before the session is marked done)."""
    initial = {v: xyz_execution.initial_store[v] for v in XYZ_VARS}
    errors, stop = [], threading.Event()
    srv = AnalysisServer(ServerConfig(port=0, workers=2)).start()

    def poll():
        while not stop.is_set():
            try:
                rows = srv.status()["sessions"]
                ids = [r["session"] for r in rows]
                assert len(ids) == len(set(ids)), ids
                for r in rows:
                    if r["state"] == "finished":
                        assert r["violations"] == 1, r
                        assert len(r["counterexamples"]) == 1, r
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                return

    pollers = [threading.Thread(target=poll) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in pollers:
            t.start()
        for _ in range(6):
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=initial, spec=XYZ_PROPERTY,
                             program="xyz")
            for m in xyz_execution.messages:
                session.send(m)
            assert session.close(timeout=30.0).violations == 1
    finally:
        stop.set()
        for t in pollers:
            t.join(timeout=10.0)
        sys.setswitchinterval(switch)
        srv.shutdown()
    assert not any(t.is_alive() for t in pollers)
    assert errors == []

