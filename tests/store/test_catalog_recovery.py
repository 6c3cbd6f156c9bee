"""Catalog corruption recovery: quarantine and rebuild from trace footers.

A truncated, garbled or non-JSON ``catalog.json`` snapshot, or a
``catalog.log`` with an unreadable record, must never brick the archive:
opening quarantines the damaged files (renamed, never deleted) and
re-indexes every sealed trace from the verdict embedded in its footer,
reporting what was rebuilt and what had to be skipped.  A torn final log
record — a writer killed mid-append — is not damage: it is dropped.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import pytest

from repro.engines import EngineVerdict, StreamVerdict
from repro.obs import metrics as _metrics
from repro.store import Catalog, RetentionPolicy, TraceArchive

from .conftest import run_workload


def _populate(root, n=3):
    """Record ``n`` xyz runs into a fresh archive; return their entries."""
    archive = TraceArchive(root)
    entries = []
    for seed in range(n):
        execution, _ = run_workload("xyz", seed=seed)
        pending = archive.begin("xyz", execution.n_threads,
                                execution.initial_store)
        for m in execution.messages:
            pending.write(m)
        ltl = EngineVerdict("ltl", "1", "x > 0", 1, (f"cx-{seed}",), True)
        entries.append(pending.commit(
            StreamVerdict((ltl.to_json(),), True), 0.5))
    return archive, entries


def _corrupt(root, damage):
    """Damage the snapshot (``truncated``/``garbage``/``empty``) or a log
    record (``log-*``); return the damaged file's path."""
    path = root / TraceArchive.CATALOG_NAME
    log = path.with_suffix(".log")
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "garbage":
        path.write_text("{this is not json", encoding="utf-8")
    elif damage == "empty":
        path.write_text("", encoding="utf-8")
    else:   # a complete but unreadable record ahead of the last one
        bad = {"log-garbage": b"{this is not json\n",
               "log-unknown-op": b'{"op": "rename"}\n',
               "log-bad-entry": b'{"op": "add", "entry": {"id": "x"}}\n',
               }[damage]
        records = log.read_bytes().splitlines(keepends=True)
        assert records, "the populated archive must leave a nonempty log"
        log.write_bytes(b"".join(records[:-1]) + bad + records[-1])
        return log
    return path


SNAPSHOT_DAMAGE = ["truncated", "garbage", "empty"]
LOG_DAMAGE = ["log-garbage", "log-unknown-op", "log-bad-entry"]


class TestCatalogRecovery:
    @pytest.mark.parametrize("damage", SNAPSHOT_DAMAGE + LOG_DAMAGE)
    def test_corrupt_catalog_is_quarantined_and_rebuilt(self, tmp_path,
                                                        damage):
        root = tmp_path / "archive"
        _, entries = _populate(root)
        damaged = _corrupt(root, damage)
        corrupt_bytes = damaged.read_bytes()

        reopened = TraceArchive(root)
        report = reopened.last_rebuild
        assert report is not None
        assert report.rebuilt == len(entries)
        assert report.skipped == []
        # the damaged file is preserved verbatim, next to the rebuilt one;
        # snapshot and log are quarantined together
        snapshot_q = root / (TraceArchive.CATALOG_NAME + ".quarantined")
        log_q = root / "catalog.log.quarantined"
        assert report.quarantined_to == str(snapshot_q)
        assert report.log_quarantined_to == str(log_q)
        quarantined = snapshot_q if damaged.suffix == ".json" else log_q
        assert quarantined.read_bytes() == corrupt_bytes
        assert not (root / "catalog.log").exists()

        # rebuilt entries match the originals where the footer is
        # authoritative (verdict, counterexamples, events)
        by_id = {e.id: e for e in reopened.entries()}
        assert set(by_id) == {e.id for e in entries}
        for orig in entries:
            got = by_id[orig.id]
            assert got.verdict == orig.verdict
            assert got.counterexamples == orig.counterexamples
            assert got.events == orig.events
            assert got.n_threads == orig.n_threads
            assert got.path == orig.path

    def test_corrupt_log_without_snapshot_is_rebuilt(self, tmp_path):
        root = tmp_path / "archive"
        archive = TraceArchive(root)
        execution, _ = run_workload("xyz", seed=0)
        pending = archive.begin("xyz", execution.n_threads,
                                execution.initial_store)
        pending.abort()
        assert not (root / TraceArchive.CATALOG_NAME).exists()
        (root / "catalog.log").write_bytes(b"{garbage\n")
        report = TraceArchive(root).last_rebuild
        assert report.quarantined_to is None
        assert report.log_quarantined_to.endswith("catalog.log.quarantined")

    def test_rebuild_does_not_reuse_trace_ids(self, tmp_path):
        root = tmp_path / "archive"
        _, entries = _populate(root)
        _corrupt(root, "garbage")
        reopened = TraceArchive(root)
        execution, _ = run_workload("xyz", seed=99)
        pending = reopened.begin("xyz", execution.n_threads,
                                 execution.initial_store)
        assert pending.id not in {e.id for e in entries}
        pending.abort()

    def test_damaged_trace_is_skipped_with_reason(self, tmp_path):
        root = tmp_path / "archive"
        archive, entries = _populate(root, n=2)
        victim = archive.path_of(entries[0])
        victim.write_bytes(victim.read_bytes()[:40])   # tear the trace too
        _corrupt(root, "truncated")

        reopened = TraceArchive(root)
        report = reopened.last_rebuild
        assert report.rebuilt == 1
        assert [name for name, _ in report.skipped] == [victim.name]
        assert {e.id for e in reopened.entries()} == {entries[1].id}

    def test_trace_without_n_threads_is_skipped(self, tmp_path):
        """A sealed trace whose header frame has a valid CRC but no
        ``n_threads`` is skipped by the rebuild, never a crash on open."""
        root = tmp_path / "archive"
        archive, entries = _populate(root, n=2)
        victim = archive.path_of(entries[0])
        data = victim.read_bytes()
        magic, head = data[:8], struct.Struct("<BI")
        frame_type, length = head.unpack_from(data, len(magic))
        body_at = len(magic) + head.size
        header = json.loads(data[body_at:body_at + length])
        del header["n_threads"]
        payload = json.dumps(header).encode("utf-8")
        victim.write_bytes(
            magic + head.pack(frame_type, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload))
            + data[body_at + length + 4:])
        _corrupt(root, "garbage")

        reopened = TraceArchive(root)
        report = reopened.last_rebuild
        assert report.rebuilt == 1
        assert [name for name, _ in report.skipped] == [victim.name]
        assert "n_threads" in report.skipped[0][1]
        assert {e.id for e in reopened.entries()} == {entries[1].id}

    def test_repeated_corruption_numbers_quarantines(self, tmp_path):
        root = tmp_path / "archive"
        _populate(root, n=1)
        _corrupt(root, "garbage")
        TraceArchive(root)
        _corrupt(root, "garbage")
        second = TraceArchive(root)
        assert second.last_rebuild.quarantined_to.endswith(".quarantined.1")

    def test_clean_open_reports_no_rebuild_and_metric_counts(self, tmp_path):
        root = tmp_path / "archive"
        _populate(root, n=1)
        assert TraceArchive(root).last_rebuild is None

        _metrics.enable(reset=True)
        try:
            before = _metrics.REGISTRY.get("store.catalog_rebuilds").value
            _corrupt(root, "garbage")
            TraceArchive(root)
            after = _metrics.REGISTRY.get("store.catalog_rebuilds").value
        finally:
            _metrics.disable()
        assert after == before + 1

    def test_rebuilt_catalog_is_valid_json_on_disk(self, tmp_path):
        root = tmp_path / "archive"
        _populate(root)
        _corrupt(root, "truncated")
        TraceArchive(root)
        with open(root / TraceArchive.CATALOG_NAME, encoding="utf-8") as fh:
            json.load(fh)   # must not raise


class TestCatalogLog:
    def test_torn_log_tail_is_dropped_not_quarantined(self, tmp_path):
        root = tmp_path / "archive"
        _, entries = _populate(root)
        log = root / "catalog.log"
        with open(log, "ab") as fh:
            fh.write(b'{"op":"add","entry":{"id":')   # killed mid-append
        reopened = TraceArchive(root)
        assert reopened.last_rebuild is None
        assert [e.id for e in reopened.entries()] == [e.id for e in entries]

        execution, _ = run_workload("xyz", seed=5)
        extra = reopened.record_messages("xyz", execution.n_threads,
                                         execution.initial_store,
                                         execution.messages)
        for line in log.read_bytes().splitlines():
            json.loads(line)   # the torn bytes were cut before appending
        again = TraceArchive(root)
        assert again.last_rebuild is None
        assert len(again) == len(entries) + 1
        assert extra.id in {e.id for e in again.entries()}

    def test_open_and_read_write_nothing(self, tmp_path):
        root = tmp_path / "archive"
        _populate(root)
        log = root / "catalog.log"
        with open(log, "ab") as fh:
            fh.write(b'{"op":"se')
        files = sorted(p for p in root.iterdir() if p.is_file())
        before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}
        archive = TraceArchive(root)
        archive.entries()
        archive.get(archive.entries()[0].id)
        assert sorted(p for p in root.iterdir() if p.is_file()) == files
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in files} == before

    def test_gc_removals_survive_reopen(self, tmp_path):
        root = tmp_path / "archive"
        archive, entries = _populate(root, n=5)
        report = archive.gc(RetentionPolicy(max_entries=2))
        assert len(report.removed) == 3
        reopened = TraceArchive(root)
        assert reopened.last_rebuild is None
        assert [e.id for e in reopened.entries()] == [
            e.id for e in entries[-2:]]
        for victim in entries[:3]:
            assert not reopened.path_of(victim).exists()

    def test_killed_writer_reopens_with_every_commit(self, tmp_path):
        """SIGKILL right after K commits and one more begin: the reopened
        catalog has exactly the K entries and never reissues an id."""
        root = tmp_path / "archive"
        k = 7
        child = textwrap.dedent(f"""
            import os, signal, sys
            from repro.sched import RandomScheduler, run_program
            from repro.store import TraceArchive
            from repro.workloads import xyz_program

            archive = TraceArchive(sys.argv[1])
            execution = run_program(xyz_program(), RandomScheduler(0))
            for _ in range({k}):
                entry = archive.record_messages(
                    "xyz", execution.n_threads, execution.initial_store,
                    execution.messages)
                print("committed", entry.id, flush=True)
            pending = archive.begin("xyz", execution.n_threads,
                                    execution.initial_store)
            print("begun", pending.id, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", child, str(root)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        committed = [i for what, i in lines if what == "committed"]
        handed_out = [i for _, i in lines]
        assert len(committed) == k and len(handed_out) == k + 1

        reopened = TraceArchive(root)
        assert reopened.last_rebuild is None
        assert sorted(e.id for e in reopened.entries()) == sorted(committed)
        next_seq = Catalog.load(root / TraceArchive.CATALOG_NAME).next_seq
        assert next_seq > max(int(i[1:7]) for i in handed_out)
