"""TraceArchive lifecycle: two-phase commit, GC, and server integration."""

import sys
import threading

import pytest

from repro.engines import StreamVerdict
from repro.store import (
    CatalogQuery,
    GCReport,
    RetentionPolicy,
    TraceArchive,
)
from repro.store.gc import plan

from ..conftest import PARITY_CASES, parity_case, serve_once
from .conftest import run_workload


def record(archive, name="xyz", seed=None, spec=None):
    execution, bundled = run_workload(name, seed)
    return archive.record_messages(
        name, execution.n_threads, execution.initial_store,
        execution.messages, spec=spec if spec is not None else bundled)


class TestTwoPhaseCommit:
    def test_commit_publishes(self, archive):
        entry = record(archive, "xyz")
        assert entry.id == "s000001-xyz"
        assert entry.verdict == "violation"
        assert entry.events == 4
        assert archive.path_of(entry).exists()
        assert archive.get(entry.id) == entry
        assert len(archive) == 1
        # no partial files remain
        assert not list(archive.traces_dir.glob("*.part"))

    def test_abort_leaves_nothing(self, archive):
        pending = archive.begin("xyz", 2, {"x": 0})
        part = archive.traces_dir / f"{pending.id}.rpt.part"
        assert part.exists()
        pending.abort()
        assert not part.exists()
        assert len(archive) == 0

    def test_commit_abort_race_is_idempotent(self, archive):
        execution, _ = run_workload("xyz")
        pending = archive.begin("xyz", execution.n_threads,
                                execution.initial_store)
        for m in execution.messages:
            pending.write(m)
        assert pending.commit(StreamVerdict((), True), 0.0) is not None
        pending.abort()  # loses the race: no-op
        assert len(archive) == 1
        assert archive.path_of(archive.get(pending.id)).exists()

    def test_abort_then_commit_returns_none(self, archive):
        pending = archive.begin("xyz", 2, {"x": 0})
        pending.abort()
        assert pending.commit(StreamVerdict((), True), 0.0) is None
        assert len(archive) == 0

    def test_write_after_resolve_raises(self, archive):
        execution, _ = run_workload("xyz")
        pending = archive.begin("xyz", execution.n_threads,
                                execution.initial_store)
        pending.abort()
        with pytest.raises(RuntimeError, match="resolved"):
            pending.write(execution.messages[0])

    def test_record_messages_aborts_on_bad_stream(self, archive):
        def broken():
            execution, _ = run_workload("xyz")
            yield execution.messages[0]
            raise OSError("stream died")

        with pytest.raises(OSError):
            archive.record_messages("xyz", 2, {"x": -1, "y": 0, "z": 0},
                                    broken())
        assert len(archive) == 0
        assert not list(archive.traces_dir.glob("*"))

    def test_ids_survive_reopen(self, archive):
        record(archive, "xyz")
        reopened = TraceArchive(archive.root)
        entry = record(reopened, "xyz")
        assert entry.id == "s000002-xyz"

    def test_final_clocks_recorded(self, archive):
        entry = record(archive, "xyz")
        assert len(entry.final_clocks) == entry.n_threads
        assert all(len(c) == entry.n_threads for c in entry.final_clocks)
        assert any(any(c) for c in entry.final_clocks)

    def test_concurrent_commits(self, archive):
        errors = []

        def worker(seed):
            try:
                record(archive, "counter", seed=seed)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(archive) == 8
        assert len({e.id for e in archive.entries()}) == 8
        # every interleaved log record landed whole: a reopen replays them
        reopened = TraceArchive(archive.root)
        assert reopened.last_rebuild is None
        assert reopened.entries() == archive.entries()


class TestQueries:
    def test_entries_filtered(self, archive):
        record(archive, "xyz")
        record(archive, "bank")
        assert len(archive.entries()) == 2
        only = archive.entries(CatalogQuery(program="bank"))
        assert [e.program for e in only] == ["bank"]

    def test_remove(self, archive):
        entry = record(archive, "xyz")
        path = archive.path_of(entry)
        archive.remove(entry.id)
        assert len(archive) == 0
        assert not path.exists()


class TestGC:
    def test_unbounded_policy_removes_nothing(self, archive):
        record(archive, "xyz")
        report = archive.gc(RetentionPolicy())
        assert isinstance(report, GCReport)
        assert not report.removed
        assert len(archive) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age_s=-1)
        with pytest.raises(ValueError):
            RetentionPolicy(max_total_bytes=-1)
        with pytest.raises(ValueError):
            RetentionPolicy(max_entries=-1)
        assert not RetentionPolicy().bounded
        assert RetentionPolicy(max_entries=1).bounded

    def test_age_pass(self, archive):
        old = record(archive, "xyz")
        new = record(archive, "bank")
        now = new.created_at + 100.0
        report = archive.gc(RetentionPolicy(max_age_s=100.0 +
                                            (new.created_at -
                                             old.created_at) / 2), now=now)
        assert [e.id for e in report.removed] == [old.id]
        assert len(archive) == 1

    def test_count_pass_keeps_newest(self, archive):
        ids = [record(archive, "counter", seed=s).id for s in range(4)]
        report = archive.gc(RetentionPolicy(max_entries=2))
        assert [e.id for e in report.removed] == ids[:2]
        assert [e.id for e in archive.entries()] == ids[2:]

    def test_size_pass_oldest_first(self, archive):
        entries = [record(archive, "counter", seed=s) for s in range(3)]
        keep = entries[-1].bytes
        report = archive.gc(RetentionPolicy(max_total_bytes=keep))
        assert [e.id for e in report.removed] == [e.id for e in entries[:2]]
        assert archive.total_bytes() <= keep

    def test_dry_run_touches_nothing(self, archive):
        entry = record(archive, "xyz")
        report = archive.gc(RetentionPolicy(max_entries=0), dry_run=True)
        assert [e.id for e in report.removed] == [entry.id]
        assert report.dry_run
        assert "would remove" in report.summary()
        assert len(archive) == 1
        assert archive.path_of(entry).exists()

    def test_plan_is_pure(self, archive):
        entries = [record(archive, "counter", seed=s) for s in range(3)]
        removed = plan(entries, RetentionPolicy(max_entries=1),
                       now=entries[-1].created_at)
        assert [e.id for e in removed] == [e.id for e in entries[:2]]
        assert len(archive) == 3


class TestServerIntegration:
    """ServerConfig(archive_dir=...) records every finished session."""

    def _serve_and_attach(self, archive_dir, workloads):
        from repro.server import AnalysisServer, ServerConfig, attach

        config = ServerConfig(port=0, archive_dir=str(archive_dir))
        server = AnalysisServer(config).start()
        try:
            for name in workloads:
                execution, spec = run_workload(name)
                initial = dict(execution.initial_store)
                with attach(server.host, server.port,
                            n_threads=execution.n_threads, initial=initial,
                            spec=spec, program=name) as session:
                    for m in execution.messages:
                        session.send(m)
                assert session.verdict.state == "finished"
        finally:
            server.shutdown(drain=True)

    def test_finished_sessions_archived_and_reproducible(self, tmp_path):
        from repro.store import verify_all

        self._serve_and_attach(tmp_path / "arch", ["xyz", "bank"])
        archive = TraceArchive(tmp_path / "arch")
        assert len(archive) == 2
        assert {e.program for e in archive.entries()} == {"xyz", "bank"}
        report = verify_all(archive)
        assert report.clean
        assert report.checked == 2

    def test_session_record_names_archive_id(self, tmp_path):
        from repro.server import AnalysisServer, ServerConfig, attach

        config = ServerConfig(port=0, archive_dir=str(tmp_path / "arch"))
        server = AnalysisServer(config).start()
        try:
            execution, spec = run_workload("xyz")
            with attach(server.host, server.port,
                        n_threads=execution.n_threads,
                        initial=dict(execution.initial_store),
                        spec=spec, program="xyz") as session:
                for m in execution.messages:
                    session.send(m)
            assert session.verdict.state == "finished"
        finally:
            records = server.shutdown(drain=True)
        archive = TraceArchive(tmp_path / "arch")
        assert [r["archive"] for r in records] == [
            e.id for e in archive.entries()]


class TestVerdictParity:
    """In-process commits and supervised journal adoptions seal their
    footers with one builder, so both catalog the same verdict — the one
    a direct ``record_messages`` of the stream catalogs."""

    FIELDS = ("verdict", "violations", "counterexamples", "engine",
              "engine_version", "engines", "engine_spec", "engine_specs",
              "sound", "final_clocks", "events", "program", "spec")

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_inproc_commit_matches_supervised_adoption(self, tmp_path,
                                                       case):
        program, execution, spec, engines = parity_case(case)
        modes = {"inproc": {"workers": 1},
                 "supervised": {"supervised": True,
                                "checkpoint_dir": str(tmp_path / "ckpt"),
                                "checkpoint_every": 16}}
        fields = {}
        for mode, config in modes.items():
            root = tmp_path / mode
            verdict, _ = serve_once(execution, program, spec, engines,
                                    archive_dir=str(root), **config)
            assert verdict.state == "finished"
            [entry] = TraceArchive(root).entries()
            fields[mode] = {f: getattr(entry, f) for f in self.FIELDS}
        direct = TraceArchive(tmp_path / "direct").record_messages(
            program, execution.n_threads, execution.initial_store,
            execution.messages, spec=spec, engines=engines)
        assert fields["inproc"] == fields["supervised"]
        assert fields["inproc"] == {f: getattr(direct, f)
                                    for f in self.FIELDS}
        assert len(direct.engines) == 3

