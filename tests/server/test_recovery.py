"""Session journals: durability, torn-tail rollback, and replay parity.

The recovery layer's contract (``repro.server.recovery``): everything
checkpointed is recoverable, a kill mid-write rolls back to the last
durable prefix, and rebuilding an observer from the recovered prefix
reproduces the live observer's verdict exactly.  A journal an older
daemon wrote (with keys this one no longer reads) still recovers.
"""

import json

import pytest

from repro.observer import Observer
from repro.observer.reliable import ReliableSender
from repro.sched import RandomScheduler, run_program
from repro.server import AnalysisServer, ServerConfig
from repro.server.client import AttachedSession, _handshake
from repro.server.protocol import Hello
from repro.server.recovery import (
    EVENTS_NAME,
    META_NAME,
    JournalError,
    SessionJournal,
    scan_journals,
)
from repro.server.session import build_observer
from repro.store import TraceArchive
from repro.store.format import read_trace_meta, read_trace_prefix
from repro.workloads import XYZ_PROPERTY, xyz_program

from ..conftest import RETIRED_TOLERANCE_KEY


def _execution(seed=0):
    return run_program(xyz_program(), RandomScheduler(seed))


def _hello(execution):
    return Hello(mode="attach", program="xyz",
                 n_threads=execution.n_threads,
                 initial=dict(execution.initial_store), spec=XYZ_PROPERTY)


def _create(root, execution, session=1, token="cafe0123"):
    return SessionJournal.create(root, session=session, token=token,
                                 hello=_hello(execution))


class TestJournalRoundTrip:
    def test_create_open_roundtrip(self, tmp_path):
        execution = _execution()
        journal = _create(tmp_path, execution)
        assert journal.recover_and_open() == []
        for m in execution.messages:
            journal.write(m)
        journal.checkpoint()
        journal.close()

        reopened = SessionJournal.open_dir(journal.dir)
        meta = reopened.meta
        assert meta.session == 1
        assert meta.token == "cafe0123"
        assert meta.epoch == 1
        assert meta.hello == _hello(execution)
        recovered = reopened.recover_and_open()
        assert [m.to_json() for m in recovered] == [
            m.to_json() for m in execution.messages]
        reopened.close()

    def test_duplicate_create_refuses(self, tmp_path):
        execution = _execution()
        _create(tmp_path, execution)
        with pytest.raises(OSError):
            _create(tmp_path, execution)

    def test_bump_epoch_persists(self, tmp_path):
        journal = _create(tmp_path, _execution())
        journal.bump_epoch(4)
        assert SessionJournal.open_dir(journal.dir).meta.epoch == 4

    def test_delete_removes_directory(self, tmp_path):
        journal = _create(tmp_path, _execution())
        journal.recover_and_open()
        journal.write(_execution().messages[0])
        journal.delete()
        assert not journal.dir.exists()
        assert scan_journals(tmp_path) == ([], [])


class TestTornTailRollback:
    def test_kill_mid_write_rolls_back_to_checkpoint(self, tmp_path):
        execution = _execution()
        journal = _create(tmp_path, execution)
        journal.recover_and_open()
        for m in execution.messages[:2]:
            journal.write(m)
        durable = journal.checkpoint()
        for m in execution.messages[2:]:
            journal.write(m)   # buffered, never checkpointed
        journal._writer._abandon()   # simulate SIGKILL: no flush, no footer
        journal._writer = None

        # tear the tail mid-byte for good measure
        path = journal.dir / EVENTS_NAME
        path.write_bytes(path.read_bytes() + b"\x02\xff\xff")

        reopened = SessionJournal.open_dir(journal.dir)
        recovered = reopened.recover_and_open()
        assert [m.to_json() for m in recovered] == [
            m.to_json() for m in execution.messages[:durable]]
        # the rewrite is itself durable: read back the rolled-back file
        reopened.checkpoint()
        assert len(read_trace_prefix(path).messages) == durable
        reopened.close()

    def test_missing_events_file_recovers_empty(self, tmp_path):
        journal = _create(tmp_path, _execution())
        assert journal.recover_and_open() == []
        journal.close()

    def test_unreadable_header_starts_over(self, tmp_path):
        journal = _create(tmp_path, _execution())
        (journal.dir / EVENTS_NAME).write_bytes(b"garbage, not a trace")
        assert journal.recover_and_open() == []
        journal.close()


class TestScanJournals:
    def test_scan_orders_by_session_and_skips_corrupt(self, tmp_path):
        ex = _execution()
        _create(tmp_path, ex, session=7, token="bbbb")
        _create(tmp_path, ex, session=2, token="aaaa")
        bad = _create(tmp_path, ex, session=9, token="cccc")
        (bad.dir / META_NAME).write_text("{not json", encoding="utf-8")
        (tmp_path / "not-a-session").mkdir()
        (tmp_path / "session-empty").mkdir()   # no meta at all

        journals, skipped = scan_journals(tmp_path)
        assert [j.meta.session for j in journals] == [2, 7]
        assert sorted(name for name, _ in skipped) == [
            "session-cccc", "session-empty"]
        for _, reason in skipped:
            assert reason   # every skip carries a human-readable why

    def test_scan_missing_root_is_empty(self, tmp_path):
        assert scan_journals(tmp_path / "nope") == ([], [])


class TestReplayParity:
    def test_rebuilt_observer_matches_live(self, tmp_path):
        execution = _execution(seed=3)
        journal = _create(tmp_path, execution)
        journal.recover_and_open()

        live = build_observer(journal.meta.hello)
        for m in execution.messages:
            live.receive(m)
            journal.write(m)
        journal.checkpoint()
        journal.close()

        reopened = SessionJournal.open_dir(journal.dir)
        recovered = reopened.recover_and_open()
        rebuilt = build_observer(reopened.meta.hello)
        rebuilt.rebuild(recovered)
        live.finish()
        rebuilt.finish()
        pretty = lambda o: sorted(v.pretty(("x", "y", "z"))
                                  for v in o.violations)
        assert pretty(rebuilt) == pretty(live)
        assert len(live.violations) > 0   # the workload does violate
        reopened.close()


class TestSealAndAdopt:
    def test_sealed_journal_is_adoptable(self, tmp_path):
        execution = _execution()
        journal = _create(tmp_path / "journals", execution)
        journal.recover_and_open()
        for m in execution.messages:
            journal.write(m)
        extra = {"program": "xyz", "spec": XYZ_PROPERTY,
                 "n_threads": execution.n_threads, "verdict": "violation",
                 "violations": 1, "counterexamples": ["x=1, y=0, z=1"],
                 "final_clocks": [[2, 2], [1, 2]], "sound": True,
                 "wall_time_s": 0.1, "created_at": 1.0}
        sealed = journal.seal(extra=extra)
        assert read_trace_meta(sealed).catalog == extra

        archive = TraceArchive(tmp_path / "archive")
        entry = archive.adopt_sealed(sealed)
        assert entry.verdict == "violation"
        assert entry.events == len(execution.messages)
        assert not sealed.exists()   # moved, not copied
        assert archive.path_of(entry).exists()


class TestOlderJournal:
    """``meta.json`` keeps its key layout across daemon versions; a key a
    newer daemon no longer reads is ignored, so a journal an older daemon
    wrote (its tolerance flag set, here) recovers and runs strict."""

    TOKEN = "0ldjournal"

    def _write(self, root, execution, prefix):
        journal = _create(root, execution, session=3, token=self.TOKEN)
        journal.recover_and_open()
        for m in execution.messages[:prefix]:
            journal.write(m)
        journal.close()
        (journal.dir / META_NAME).write_text(json.dumps({
            "version": 1, "session": 3, "token": self.TOKEN, "epoch": 1,
            "program": "xyz", "n_threads": execution.n_threads,
            "initial": dict(execution.initial_store), "spec": XYZ_PROPERTY,
            RETIRED_TOLERANCE_KEY: True, "created_at": 1.0, "engines": [],
        }), encoding="utf-8")

    def test_meta_reads_into_the_hello(self, tmp_path):
        execution = _execution()
        self._write(tmp_path, execution, prefix=0)
        [journal], skipped = scan_journals(tmp_path)
        assert skipped == []
        assert journal.meta.hello == _hello(execution)
        assert RETIRED_TOLERANCE_KEY not in journal.meta.to_json()

    def test_recovered_session_resumes_to_the_reference_verdict(
            self, tmp_path):
        execution = _execution(seed=3)
        half = len(execution.messages) // 2
        ckpt = tmp_path / "ckpt"
        self._write(ckpt, execution, prefix=half)
        config = ServerConfig(port=0, workers=1, supervised=True,
                              checkpoint_dir=str(ckpt), recover=True,
                              resume_timeout=30.0, drain_timeout=60.0)
        with AnalysisServer(config) as srv:
            sock, reply = _handshake(
                srv.host, srv.port,
                Hello(mode="resume", session=3, token=self.TOKEN, epoch=1),
                timeout=10.0)
            assert reply["delivered"] == half
            sock.settimeout(None)
            session = AttachedSession(3, None, token=self.TOKEN,
                                      epoch=reply["epoch"])
            session._sender = ReliableSender(
                sock=sock, on_frame=session._on_frame, first_seq=half)
            for m in execution.messages[half:]:
                session.send(m)
            verdict = session.close(timeout=60.0)

        reference = Observer(execution.n_threads, execution.initial_store,
                             spec=XYZ_PROPERTY)
        reference.receive_batch(execution.messages)
        reference.finish()
        assert verdict.state == "finished"
        assert verdict.analyzed == len(execution.messages)
        assert sorted(verdict.counterexamples) == sorted(
            reference.counterexamples())
        assert verdict.violations == len(reference.violations) > 0
