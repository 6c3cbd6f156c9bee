"""Supervised sessions: worker processes, crash restarts, crash loops.

With ``ServerConfig(supervised=True, checkpoint_dir=...)`` each session's
analysis runs in a spawned worker process.  The supervisor must (a) be
invisible when nothing crashes — verdict parity with a standalone
observer, (b) restart a SIGKILLed worker and recover through the journal
with the same verdict, and (c) give up on a crash loop with a reasoned
error instead of hanging the client.
"""

import json
import os
import signal
import time

import pytest

from repro.logic import Monitor
from repro.obs import metrics as _metrics
from repro.observer import Observer
from repro.observer.reliable import ReliableTransportError
from repro.server import AnalysisServer, ServerConfig, attach
from repro.store.format import read_trace_prefix
from repro.workloads import XYZ_PROPERTY, XYZ_VARS

from ..conftest import (
    PARITY_CASES,
    SOUP_ENGINES,
    lock_soup,
    parity_case,
    serve_once,
)


@pytest.fixture
def xyz_initial(xyz_execution):
    return {v: xyz_execution.initial_store[v] for v in XYZ_VARS}


def _standalone(execution, initial, spec):
    obs = Observer(execution.n_threads, initial, spec=spec)
    for m in execution.messages:
        obs.receive(m)
    obs.finish()
    return sorted(v.pretty(tuple(sorted(initial))) for v in obs.violations)


def _config(tmp_path, **kw):
    kw.setdefault("port", 0)
    kw.setdefault("workers", 1)
    kw.setdefault("supervised", True)
    kw.setdefault("checkpoint_dir", str(tmp_path / "ckpt"))
    kw.setdefault("checkpoint_every", 2)
    kw.setdefault("drain_timeout", 60.0)
    return ServerConfig(**kw)


def _worker_pid(server, session_id, deadline=10.0, not_pid=None):
    """The pid of the session's live worker (one other than ``not_pid``:
    a worker just killed can still look alive for a moment)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        sess = server._sessions.get(session_id)
        proc = getattr(sess, "_proc", None) if sess else None
        if (proc is not None and proc.pid is not None
                and proc.pid != not_pid and proc.is_alive()):
            return proc.pid
        time.sleep(0.02)
    raise RuntimeError("no live worker process")


def _final_clocks(execution):
    clocks = [[0] * execution.n_threads for _ in range(execution.n_threads)]
    for m in execution.messages:
        clocks[m.thread] = list(m.clock)
    return clocks


class TestSupervisedParity:
    def test_clean_run_matches_standalone(self, tmp_path, xyz_execution,
                                          xyz_initial):
        records = []
        with AnalysisServer(_config(tmp_path),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             program="xyz")
            for m in xyz_execution.messages:
                session.send(m)
            verdict = session.close(timeout=60.0)

        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        assert verdict.sound
        assert verdict.final_clocks   # supervised results carry clocks
        [record] = records
        assert record["supervised"] is True
        assert record["restarts"] == 0
        # terminal sessions clean their journals up
        assert list((tmp_path / "ckpt").iterdir()) == []

    def test_journal_archive_promotion(self, tmp_path, xyz_execution,
                                       xyz_initial):
        from repro.store import TraceArchive

        config = _config(tmp_path, archive_dir=str(tmp_path / "arch"))
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             program="xyz")
            for m in xyz_execution.messages:
                session.send(m)
            session.close(timeout=60.0)
        [entry] = TraceArchive(tmp_path / "arch").entries()
        assert entry.program == "xyz"
        assert entry.verdict == "violation"
        assert entry.events == len(xyz_execution.messages)


def _observer_verdict(execution, spec, engines):
    """The standalone verdict: what a served session must reproduce (a
    served spec reaches the engines as a parsed Monitor)."""
    obs = Observer(execution.n_threads, dict(execution.initial_store),
                   spec=Monitor(spec) if spec else None, engines=engines)
    for m in execution.messages:
        obs.receive(m)
    obs.finish()
    return obs.verdict()


def _mode_config(tmp_path, supervised):
    if not supervised:
        return {"workers": 1}
    return {"supervised": True, "checkpoint_dir": str(tmp_path / "ckpt"),
            "checkpoint_every": 16}


class TestVerdictParity:
    """One record builder serves both kinds of session: the result frame
    and the sealed record carry exactly the standalone verdict."""

    @pytest.mark.parametrize("supervised", [False, True],
                             ids=["inproc", "supervised"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_result_frame_and_sealed_record(self, tmp_path, case,
                                            supervised):
        program, execution, spec, engines = parity_case(case)
        expected = _observer_verdict(execution, spec, engines)
        verdict, record = serve_once(execution, program, spec, engines,
                                     **_mode_config(tmp_path, supervised))

        assert verdict.state == "finished"
        assert verdict.violations == expected.violations
        assert list(verdict.counterexamples) == expected.counterexamples
        assert verdict.engines == expected.engines
        assert verdict.sound is expected.sound
        assert len(verdict.engines) == 3
        assert record["state"] == "finished"
        assert record["violations"] == expected.violations
        assert record["counterexamples"] == expected.counterexamples
        assert record["engines"] == list(expected.engines)
        assert record["sound"] is expected.sound
        assert record["analyzed"] == len(execution.messages)
        assert record["final_clocks"] == [
            list(c) for c in verdict.final_clocks]
        assert record.get("supervised", False) is supervised


def _poll_row(server, session_id, until, timeout=20.0):
    """Poll ``server.status()`` until the session's row satisfies
    ``until`` (or the timeout passes); return the last row."""
    deadline = time.monotonic() + timeout
    while True:
        [row] = [r for r in server.status()["sessions"]
                 if r["session"] == session_id]
        if until(row) or time.monotonic() > deadline:
            return row
        time.sleep(0.05)


class TestLiveViolations:
    def test_supervised_live_count_covers_every_engine(self, tmp_path):
        """An atomicity-only session reports its streamed findings while
        live, supervised or not (the worker used to count LTL only)."""
        execution = lock_soup(1)
        n = len(execution.messages)
        live = {}
        for supervised in (False, True):
            config = ServerConfig(port=0, drain_timeout=60.0,
                                  **_mode_config(tmp_path, supervised))
            with AnalysisServer(config) as srv:
                session = attach(srv.host, srv.port,
                                 n_threads=execution.n_threads,
                                 initial=dict(execution.initial_store),
                                 program="soup", engines=["atomicity"])
                for m in execution.messages:
                    session.send(m)
                # no fin yet: the session is live
                expected = live.get(False)
                row = _poll_row(
                    srv, session.session_id,
                    lambda r: r["analyzed"] == n and (
                        expected is None or r["violations"] == expected))
                assert row["state"] == "streaming"
                assert row["analyzed"] == n
                live[supervised] = row["violations"]
                assert session.close(timeout=60.0).state == "finished"
        assert live[False] > 0
        assert live[True] == live[False]


class TestWorkerCrash:
    def test_sigkill_mid_stream_recovers_with_parity(self, tmp_path,
                                                     xyz_execution,
                                                     xyz_initial):
        records = []
        with AnalysisServer(_config(tmp_path),
                            on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             program="xyz")
            half = len(xyz_execution.messages) // 2
            for m in xyz_execution.messages[:half]:
                session.send(m)
            os.kill(_worker_pid(srv, session.session_id), signal.SIGKILL)
            for m in xyz_execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)

        expected = _standalone(xyz_execution, xyz_initial, XYZ_PROPERTY)
        assert verdict.state == "finished"
        assert verdict.analyzed == len(xyz_execution.messages)
        assert sorted(verdict.counterexamples) == expected
        [record] = records
        assert record["restarts"] >= 1

    def test_crash_loop_fails_with_reason_not_hang(self, tmp_path,
                                                   xyz_execution,
                                                   xyz_initial):
        records = []
        config = _config(tmp_path, max_restarts=1, restart_backoff=0.05,
                         drain_timeout=30.0)
        with AnalysisServer(config, on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, spec=XYZ_PROPERTY,
                             program="xyz")
            session.send(xyz_execution.messages[0])
            # kill every worker incarnation until the budget is exhausted
            started = time.monotonic()
            deadline = started + config.drain_timeout
            failed = None
            while time.monotonic() < deadline and failed is None:
                try:
                    os.kill(_worker_pid(srv, session.session_id,
                                        deadline=2.0), signal.SIGKILL)
                except RuntimeError:
                    pass
                sess = srv._sessions.get(session.session_id)
                if sess is not None and sess.done.is_set():
                    failed = sess.record()
                time.sleep(0.05)
            assert failed is not None, "crash loop never resolved"
            assert "crash loop" in failed["error"]
            assert "restart budget" in failed["error"]
            # the client is told, not left hanging
            with pytest.raises((ReliableTransportError, OSError)):
                for m in xyz_execution.messages[1:]:
                    session.send(m)
                session.close(timeout=30.0)

    def test_repeated_sigkills_on_a_long_stream(self, tmp_path):
        """Three kills at about 1/4, 1/2 and 3/4 of the ``lattice``-sized
        lock soup: each incarnation replays the journal written so far."""
        execution = lock_soup(0, 155)
        engines = list(SOUP_ENGINES)
        expected = _observer_verdict(execution, None, engines)
        records = []
        config = _config(tmp_path, checkpoint_every=4)
        with AnalysisServer(config, on_session_end=records.append) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=execution.n_threads,
                             initial=dict(execution.initial_store),
                             program="soup", engines=engines)
            n = len(execution.messages)
            killed = None
            for i, m in enumerate(execution.messages):
                if i in (n // 4, n // 2, 3 * n // 4):
                    killed = _worker_pid(srv, session.session_id,
                                         not_pid=killed)
                    os.kill(killed, signal.SIGKILL)
                session.send(m)
            verdict = session.close(timeout=120.0)

        assert verdict.state == "finished"
        assert verdict.analyzed == n
        assert list(verdict.counterexamples) == expected.counterexamples
        assert verdict.engines == expected.engines
        assert [list(c) for c in verdict.final_clocks] == \
            _final_clocks(execution)
        [record] = records
        assert record["restarts"] == 3

    def test_replayed_events_are_counted_by_the_daemon(self, tmp_path,
                                                       xyz_execution,
                                                       xyz_initial):
        _metrics.enable(reset=True)
        try:
            with AnalysisServer(_config(tmp_path)) as srv:
                session = attach(srv.host, srv.port,
                                 n_threads=xyz_execution.n_threads,
                                 initial=xyz_initial, spec=XYZ_PROPERTY,
                                 program="xyz")
                half = len(xyz_execution.messages) // 2
                for m in xyz_execution.messages[:half]:
                    session.send(m)
                sess = srv._sessions[session.session_id]
                deadline = time.monotonic() + 10.0
                while sess.received < half and time.monotonic() < deadline:
                    time.sleep(0.02)
                os.kill(_worker_pid(srv, session.session_id), signal.SIGKILL)
                for m in xyz_execution.messages[half:]:
                    session.send(m)
                assert session.close(timeout=60.0).state == "finished"
            replayed = _metrics.REGISTRY.get(
                "server.recovery_replayed_events")
            assert replayed is not None and replayed.value >= half
            assert _metrics.REGISTRY.get(
                "server.worker_recovered_events") is None
        finally:
            _metrics.disable()


class TestJournalAhead:
    def test_journal_and_ckpt_frames_run_ahead_of_a_stopped_worker(
            self, tmp_path):
        """The daemon journals, fsyncs and tells the client before the
        analysis: with the worker stopped, the client still gets its
        ``ckpt`` frames and the journal holds the checkpointed prefix."""
        execution = lock_soup(0)
        engines = list(SOUP_ENGINES)
        expected = _observer_verdict(execution, None, engines)
        config = _config(tmp_path, checkpoint_every=4,
                         heartbeat_timeout=120.0)
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=execution.n_threads,
                             initial=dict(execution.initial_store),
                             program="soup", engines=engines)
            ckpts = []
            on_frame = session._sender._on_frame

            def record_ckpt(d):
                if d.get("t") == "ckpt":
                    ckpts.append(d["n"])
                on_frame(d)

            session._sender._on_frame = record_ckpt
            pid = _worker_pid(srv, session.session_id)
            os.kill(pid, signal.SIGSTOP)
            try:
                for m in execution.messages[:16]:
                    session.send(m)
                deadline = time.monotonic() + 10.0
                while (not ckpts or ckpts[-1] < 16) and \
                        time.monotonic() < deadline:
                    time.sleep(0.02)
                sess = srv._sessions[session.session_id]
                events = sess.journal.events_path
                journaled = (len(read_trace_prefix(events).messages)
                             if events.exists() else 0)
                assert ckpts == [4, 8, 12, 16]
                assert journaled >= ckpts[-1]
                assert sess.analyzed == 0
            finally:
                os.kill(pid, signal.SIGCONT)
            for m in execution.messages[16:]:
                session.send(m)
            verdict = session.close(timeout=60.0)

        assert verdict.state == "finished"
        assert verdict.analyzed == len(execution.messages)
        assert list(verdict.counterexamples) == expected.counterexamples
        assert verdict.engines == expected.engines
        assert [list(c) for c in verdict.final_clocks] == \
            _final_clocks(execution)


class TestDefaultEngines:
    @pytest.mark.parametrize("supervised", [False, True],
                             ids=["inproc", "supervised"])
    def test_config_default_applies_to_a_hello_without_engines(
            self, tmp_path, xyz_execution, xyz_initial, supervised):
        config = ServerConfig(port=0, drain_timeout=60.0,
                              default_engines=("atomicity",),
                              **_mode_config(tmp_path, supervised))
        with AnalysisServer(config) as srv:
            session = attach(srv.host, srv.port,
                             n_threads=xyz_execution.n_threads,
                             initial=xyz_initial, program="xyz")
            if supervised:
                [meta] = (tmp_path / "ckpt").glob("session-*/meta.json")
                doc = json.loads(meta.read_text(encoding="utf-8"))
                assert doc["engines"] == ["atomicity"]
            for m in xyz_execution.messages:
                session.send(m)
            verdict = session.close(timeout=60.0)
        assert verdict.state == "finished"
        assert [e["engine"] for e in verdict.engines] == ["atomicity"]
