"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main
from repro.store.format import MAGIC

from .conftest import V1_XYZ_TRACE


def run_cli(*argv):
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


class TestDemo:
    def test_landing_predicts(self):
        code, out = run_cli("demo", "landing")
        assert code == 1
        assert "PREDICTED" in out
        assert "counterexample" in out
        assert "6 states, 3 runs" in out

    def test_xyz_predicts(self):
        code, out = run_cli("demo", "xyz")
        assert code == 1
        assert "observed run: OK" in out
        assert "violations (observed or predicted): 1" in out

    def test_clean_spec_exits_zero(self):
        code, out = run_cli("demo", "xyz", "--spec", "x >= -1")
        assert code == 0
        assert "no violation" in out

    def test_seeded_schedule(self):
        code, out = run_cli("demo", "landing", "--seed", "3")
        assert code in (0, 1)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("demo", "nope")


class TestRecordCheck:
    def test_record_then_check(self, tmp_path):
        trace = str(tmp_path / "t.trace")
        code, out = run_cli("record", "xyz", trace)
        assert code == 0
        assert "recorded 4 messages" in out
        code, out = run_cli("check", trace, "--spec",
                            "(x > 0) -> [y == 0, y > z)")
        assert code == 1
        assert "violations: 1" in out

    def test_check_clean_spec(self, tmp_path):
        trace = str(tmp_path / "t.trace")
        run_cli("record", "xyz", trace)
        code, out = run_cli("check", trace, "--spec", "x >= -1")
        assert code == 0

    @pytest.mark.parametrize("content", [None, "garbage\n"],
                             ids=["missing", "malformed"])
    def test_check_unreadable_trace_exits_two(self, tmp_path, content):
        trace = tmp_path / "t.trace"
        if content is not None:
            trace.write_text(content)
        code, out = run_cli("check", str(trace), "--spec", "x > 0")
        assert code == 2
        assert out.startswith("error: ")


class TestTraceFormats:
    """``record`` writes v2; a v1 file still reads through every command
    that takes a trace."""

    SPEC = "(x > 0) -> [y == 0, y > z)"

    def test_record_writes_v2(self, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli("record", "xyz", str(trace))
        assert trace.read_bytes().startswith(MAGIC)

    def test_v1_trace_checks_and_imports(self, tmp_path):
        code, out = run_cli("check", str(V1_XYZ_TRACE), "--spec", self.SPEC)
        assert code == 1
        assert "violations: 1" in out
        archive = str(tmp_path / "a")
        code, out = run_cli("archive", archive, "--import-trace",
                            str(V1_XYZ_TRACE), "--spec", self.SPEC)
        assert code == 0
        assert "4 events" in out and "1 violation(s)" in out
        code, out = run_cli("replay", archive, "--all", "--expect-catalog")
        assert code == 0
        assert "all verdicts reproduced exactly" in out


class TestSpecVariableMissing:
    """A spec naming a variable the program lacks is a usage error on
    every local command: one ``error:`` line and exit 2, no traceback."""

    @pytest.mark.parametrize("command", [
        "check", "demo", "observe", "stats", "analyze", "explore",
        "archive-import"])
    def test_exits_two_with_one_error_line(self, tmp_path, command):
        trace = str(tmp_path / "t.trace")
        run_cli("record", "xyz", trace)
        argv = {
            "check": ["check", trace],
            "archive-import": ["archive", str(tmp_path / "a"),
                               "--import-trace", trace],
        }.get(command, [command, "xyz"])
        code, out = run_cli(*argv, "--spec", "w > 0")
        assert code == 2
        errors = [ln for ln in out.splitlines() if ln.startswith("error: ")]
        assert errors == [
            "error: specification variables ['w'] absent from the "
            "program's shared store ['x', 'y', 'z']"]


class TestRender:
    def test_text_render(self):
        code, out = run_cli("render", "landing")
        assert code == 0
        assert "Level 0:" in out
        assert "T1:" in out

    def test_dot_render(self):
        code, out = run_cli("render", "xyz", "--dot")
        assert code == 0
        assert out.startswith("digraph")


class TestRaces:
    def test_counter_races(self):
        code, out = run_cli("races", "counter")
        assert code == 1
        assert "races: 3" in out

    def test_clean_workload(self):
        code, out = run_cli("races", "xyz")
        # xyz has unsynchronized accesses to x from both threads: races
        assert code in (0, 1)
        assert "program:" in out


class TestRunMiniLang:
    SRC = (
        "shared int landing = 0, approved = 0, radio = 1;\n"
        "thread controller {\n"
        "    if (radio == 0) { approved = 0; } else { approved = 1; }\n"
        "    if (approved == 1) { landing = 1; }\n"
        "}\n"
        "thread watchdog {\n"
        "    local int i = 0;\n"
        "    while (radio == 1 && i < 3) {\n"
        "        skip; i = i + 1;\n"
        "        if (i == 2) { radio = 0; }\n"
        "    }\n"
        "}\n"
    )

    def test_run_with_spec(self, tmp_path):
        src = tmp_path / "controller.ml"
        src.write_text(self.SRC)
        code, out = run_cli(
            "run", str(src), "--spec",
            "start(landing == 1) -> [approved == 1, radio == 0)",
        )
        assert code == 1
        assert "violations (observed or predicted): 1" in out
        assert "counterexample" in out

    def test_run_without_spec(self, tmp_path):
        src = tmp_path / "p.ml"
        src.write_text("shared int x = 0;\nthread t { x = 7; }\n")
        code, out = run_cli("run", str(src))
        assert code == 0
        assert "'x': 7" in out

    def test_run_with_seed(self, tmp_path):
        src = tmp_path / "p.ml"
        src.write_text(self.SRC)
        code, out = run_cli("run", str(src), "--seed", "3")
        assert code == 0


class TestExplore:
    def test_landing_exploration(self):
        code, out = run_cli("explore", "landing")
        assert code == 1
        assert "interleavings explored:" in out
        assert "witness schedule:" in out

    def test_limit_truncates(self):
        code, out = run_cli("explore", "landing", "--limit", "3")
        assert "(truncated)" in out

    def test_clean_spec(self):
        code, out = run_cli("explore", "xyz", "--spec", "x >= -1")
        assert code == 0
        assert "violating interleavings: 0" in out


class TestObserve:
    def test_clean_wire_is_sound(self):
        code, out = run_cli("observe", "xyz", "--faults", "")
        assert "all verdicts sound" in out
        assert "VERDICT: sound everywhere" in out

    def test_fault_injection_degrades_gracefully(self):
        code, out = run_cli("observe", "landing", "--faults",
                            "drop=0.9", "--fault-seed", "1")
        assert "losses=" in out
        assert "VERDICT: degraded" in out
        assert "degraded windows:" in out

    def test_duplicates_absorbed(self):
        code, out = run_cli("observe", "xyz", "--faults", "dup=1.0")
        assert "duplicates_dropped=4" in out
        assert "VERDICT: sound everywhere" in out

    def test_bad_fault_spec_exits_two(self):
        code, out = run_cli("observe", "xyz", "--faults", "warble=0.1")
        assert code == 2
        assert "error:" in out

    def test_reordering_channel_with_stall_threshold(self):
        code, out = run_cli("observe", "landing", "--channel", "reorder",
                            "--faults", "drop=0.2", "--fault-seed", "3",
                            "--stall", "2")
        assert "observer health:" in out
        assert "VERDICT:" in out


class TestObserveObservability:
    def test_metrics_flag_prints_summary(self):
        code, out = run_cli("observe", "xyz", "--metrics")
        assert "metrics:" in out
        assert "algoa.events" in out
        assert "delivery.offered" in out
        assert "observer.received" in out

    def test_metrics_off_by_default(self):
        from repro.obs import metrics

        code, out = run_cli("observe", "xyz")
        assert "metrics:" not in out
        assert not metrics.ENABLED

    def test_trace_out_writes_chrome_json(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code, out = run_cli("observe", "xyz", "--trace-out", str(path))
        assert f"written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert all("ph" in ev for ev in doc["traceEvents"])

    def test_progress_lines(self):
        code, out = run_cli("observe", "xyz", "--progress", "2")
        assert "progress: 2 messages" in out
        assert "progress (final): 4 messages" in out

    def test_obs_state_restored_after_run(self):
        from repro.obs import metrics, tracing

        run_cli("observe", "xyz", "--metrics")
        assert not metrics.ENABLED
        assert not tracing.ENABLED


class TestStats:
    def test_stats_prints_metrics_and_hotspots(self):
        code, out = run_cli("stats", "xyz")
        assert code == 0
        assert "metrics:" in out
        assert "algoa.events" in out
        assert "span hotspots:" in out
        assert "algoa.process" in out
        assert "lattice: 7 cuts expanded over 5 levels" in out

    def test_stats_trace_out(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code, out = run_cli("stats", "xyz", "--trace-out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "algoa.process" in names
        assert "lattice.level" in names

    def test_stats_json_snapshot(self):
        import json

        code, out = run_cli("stats", "xyz", "--json")
        start = out.index("\n{\n") + 1
        snap = json.loads(out[start:])
        assert snap["algoa.events"]["value"] == 10

    def test_stats_spec_override(self):
        code, out = run_cli("stats", "xyz", "--spec", "x >= -1")
        assert code == 0
        assert "violations (observed or predicted): 0" in out

    def test_stats_leaves_obs_disabled(self):
        from repro.obs import metrics, tracing

        run_cli("stats", "landing")
        assert not metrics.ENABLED
        assert not tracing.ENABLED


class TestServerCommands:
    @pytest.fixture
    def server(self):
        from repro.server import AnalysisServer, ServerConfig

        with AnalysisServer(ServerConfig(port=0, workers=2)) as srv:
            yield srv

    def test_attach_streams_and_predicts(self, server):
        code, out = run_cli("attach", "xyz", "--port", str(server.port))
        assert code == 1
        assert "attached to" in out
        assert "state: finished" in out
        assert "violations (observed or predicted): 1" in out
        assert "counterexample" in out

    def test_attach_clean_spec_exits_zero(self, server):
        code, out = run_cli("attach", "xyz", "--port", str(server.port),
                            "--spec", "x >= -1")
        assert code == 0

    def test_attach_connection_refused_exits_two(self):
        # a freshly closed ephemeral port: nothing listens there
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, out = run_cli("attach", "xyz", "--port", str(port))
        assert code == 2
        assert "error" in out

    def test_sessions_table(self, server):
        run_cli("attach", "landing", "--port", str(server.port))
        assert server.wait_idle(timeout=10.0)
        code, out = run_cli("sessions", "--port", str(server.port))
        assert code == 0
        assert "1 finished" in out
        assert "landing" in out

    def test_sessions_json(self, server):
        import json

        run_cli("attach", "xyz", "--port", str(server.port))
        assert server.wait_idle(timeout=10.0)
        code, out = run_cli("sessions", "--port", str(server.port), "--json")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["t"] == "status"
        assert doc["sessions"][0]["program"] == "xyz"

    def test_sessions_no_server_exits_two(self):
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, out = run_cli("sessions", "--port", str(port))
        assert code == 2


class TestStoreCommands:
    """repro archive / replay / query / gc."""

    @pytest.fixture
    def populated(self, tmp_path):
        root = str(tmp_path / "arch")
        code, _ = run_cli("archive", root, "xyz")
        assert code == 0
        code, _ = run_cli("archive", root, "bank")
        assert code == 0
        return root

    def test_archive_workload(self, tmp_path):
        code, out = run_cli("archive", str(tmp_path / "a"), "xyz")
        assert code == 0
        assert "archived s000001-xyz" in out
        assert "verdict violation" in out
        assert "counterexample" in out

    def test_archive_requires_one_source(self, tmp_path):
        code, out = run_cli("archive", str(tmp_path / "a"))
        assert code == 2
        trace = str(tmp_path / "t.trace")
        run_cli("record", "xyz", trace)
        code, out = run_cli("archive", str(tmp_path / "a"), "xyz",
                            "--import-trace", trace)
        assert code == 2

    def test_archive_import_trace(self, tmp_path):
        trace = str(tmp_path / "t.trace")
        run_cli("record", "xyz", trace)
        code, out = run_cli("archive", str(tmp_path / "a"),
                            "--import-trace", trace,
                            "--spec", "(x > 0) -> [y == 0, y > z)")
        assert code == 0
        assert "verdict violation" in out

    def test_archive_import_missing_file(self, tmp_path):
        code, out = run_cli("archive", str(tmp_path / "a"),
                            "--import-trace", str(tmp_path / "nope.trace"))
        assert code == 2
        assert "error" in out

    def test_query_table_and_json(self, populated):
        import json

        code, out = run_cli("query", populated)
        assert code == 0
        assert "2 trace(s)" in out
        code, out = run_cli("query", populated, "--program", "bank",
                            "--json")
        assert code == 0
        doc = json.loads(out)
        assert [e["program"] for e in doc] == ["bank"]

    def test_query_empty(self, populated):
        code, out = run_cli("query", populated, "--min-events", "999")
        assert code == 0
        assert "no matching traces" in out

    def test_replay_expect_catalog(self, populated):
        code, out = run_cli("replay", populated, "--all",
                            "--expect-catalog")
        assert code == 0
        assert "all verdicts reproduced exactly" in out

    def test_replay_expect_catalog_detects_drift(self, populated):
        import dataclasses
        from pathlib import Path

        from repro.store import Catalog, TraceArchive

        catalog = Catalog.load(Path(populated) / TraceArchive.CATALOG_NAME)
        entry = catalog.entries()[0]
        catalog.remove(entry.id)
        catalog.add(dataclasses.replace(entry, violations=0,
                                        counterexamples=()))
        catalog.save()
        code, out = run_cli("replay", populated, "--all",
                            "--expect-catalog")
        assert code == 1
        assert "DRIFT" in out

    def test_replay_single_id_new_spec(self, populated):
        code, out = run_cli("replay", populated, "s000001-xyz",
                            "--spec", "x >= -1")
        assert code == 0
        assert "clean" in out

    def test_replay_json_is_pure(self, populated):
        import json

        code, out = run_cli("replay", populated, "--all",
                            "--engine", "atomicity", "--json")
        assert code == 0
        results = json.loads(out)  # no progress lines before the document
        assert len(results) == 2
        assert all(r["engines"][0]["engine"] == "atomicity" for r in results)

    def test_replay_usage_errors(self, populated):
        code, _ = run_cli("replay", populated)
        assert code == 2
        code, _ = run_cli("replay", populated, "s000001-xyz", "--all")
        assert code == 2
        code, _ = run_cli("replay", populated, "--all", "--expect-catalog",
                          "--spec", "x >= 0")
        assert code == 2

    def test_replay_unknown_id(self, populated):
        code, out = run_cli("replay", populated, "s999999-nope")
        assert code == 2
        assert "error" in out

    def test_gc_dry_run_then_live(self, populated):
        code, out = run_cli("gc", populated, "--keep", "1", "--dry-run")
        assert code == 0
        assert "would remove 1 trace(s)" in out
        code, out = run_cli("gc", populated, "--keep", "1")
        assert code == 0
        assert "removed 1 trace(s)" in out
        code, out = run_cli("query", populated)
        assert "1 trace(s)" in out

    def test_gc_unbounded_warns(self, populated):
        code, out = run_cli("gc", populated)
        assert code == 0
        assert "warning" in out

    def test_serve_archive_flag(self, tmp_path):
        import threading

        from repro.server import AnalysisServer, ServerConfig

        # the CLI wires --archive straight into ServerConfig.archive_dir;
        # drive the config path end-to-end through a real server
        config = ServerConfig(port=0, archive_dir=str(tmp_path / "arch"))
        server = AnalysisServer(config).start()
        try:
            code, out = run_cli("attach", "xyz", "--port", str(server.port))
            assert code == 1
        finally:
            server.shutdown(drain=True)
        code, out = run_cli("replay", str(tmp_path / "arch"), "--all",
                            "--expect-catalog")
        assert code == 0
        assert "all verdicts reproduced exactly" in out
