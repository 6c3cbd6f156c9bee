"""Smoke test of the served-path benchmark.

Runs every workload for a short measured phase, untraced and traced, and
checks that the correctness oracle passes, that every metric
BENCHMARK.json names is emitted with its unit, and that the traced
ledger's span rows do not cover more than each process's CPU; then checks
that a session that errors is counted as failed and that the benchmark
refuses to run without the program it measures.  From the repository
root::

    python3 -m pytest servedbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "servedbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1.5", "--trace", str(trace), *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_frac"] == 0.0
    assert info["seed"] == 7 and info["pythonhashseed"] == "0"
    assert info["messages_per_session"] and info["cpu_affinity"]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        v = {k: m["value"] for k, m in result["metrics"].items()}
        assert v["client.cpu_us"] > 0 and v["daemon.cpu_us"] > 0
        for proc in ("client", "daemon"):
            assert v[f"{proc}.other_us"] >= -0.01 * v[f"{proc}.cpu_us"], proc
        assert (ROOT / info["trace_file"]).is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _import(*modules):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return [__import__(m, fromlist=["_"]) for m in modules]
    finally:
        del sys.path[:2]


def test_sessions_reference_predicts_the_xyz_violation():
    workloads, = _import("workloads")
    ref = workloads.build("sessions", seed=7).streams[0].reference
    assert ref["analyzed"] == 4
    assert ref["violations"] == 1 and len(ref["counterexamples"]) == 1


def test_oracle_compares_every_verdict_field():
    workloads, client = _import("workloads", "repro.server.client")
    SessionVerdict = client.SessionVerdict
    stream = workloads.build("lattice", seed=7).streams[0]
    ref = stream.reference
    served = SessionVerdict(
        session=1, state=ref["state"], violations=ref["violations"],
        counterexamples=tuple(ref["counterexamples"]),
        final_clocks=tuple(tuple(c) for c in ref["final_clocks"]),
        analyzed=ref["analyzed"], engines=tuple(ref["engines"]))
    assert workloads.verdict_key(served) == stream.expected
    changed = [
        {"state": "failed"},
        {"violations": ref["violations"] + 1},
        {"counterexamples": tuple(ref["counterexamples"][1:])},
        {"final_clocks": tuple(tuple(c) for c in ref["final_clocks"][1:])},
        {"engines": tuple(ref["engines"][1:])},
        {"analyzed": ref["analyzed"] - 1},
    ]
    for change in changed:
        wrong = dataclasses.replace(served, **change)
        assert workloads.verdict_key(wrong) != stream.expected, change


def test_a_session_that_raises_counts_as_failed(monkeypatch):
    run, workloads, client, protocol = _import(
        "run", "workloads", "repro.server.client", "repro.server.protocol")

    def attach(**kwargs):
        raise protocol.ProtocolError("expected a helloack")

    monkeypatch.setattr(client, "attach", attach)
    wl = workloads.build("sessions", seed=7)
    c = run.Client(wl, port=1, offset=0)
    assert c.session(wl.streams[0]) is False
    assert (c.attempted, c.failed, c.correct) == (1, 1, 0)
    assert "ProtocolError" in c.errors[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "servedbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "sessions", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
