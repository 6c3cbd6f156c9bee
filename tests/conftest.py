"""Shared fixtures: the paper's two reference executions and helpers."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.sched import FixedScheduler, run_program
from repro.workloads import (
    LANDING_OBSERVED_SCHEDULE,
    XYZ_OBSERVED_SCHEDULE,
    XYZ_PROPERTY,
    landing_controller,
    xyz_program,
)

#: The ``xyz_execution`` run as a v1 JSON-lines trace, written once by the
#: v1 writer before v2 became the only format written; v1 is read-only.
V1_XYZ_TRACE = Path(__file__).parent / "golden" / "xyz_v1.trace"

#: Engine selections of the served ``lattice`` workload, for lock soups.
SOUP_ENGINES = ("ltl:(v0 > 5) -> [v1 >= 0, v1 > 8)", "atomicity",
                "pattern:W(v0)=9;R(v0);W(v1)")

#: Verdict-parity cases: ``name -> (program, spec, engines, seed)``.
PARITY_CASES = {
    "xyz": ("xyz", XYZ_PROPERTY, ("ltl", "atomicity", "pattern:W(x);R(y)"),
            None),
    "soup-0": ("soup", None, SOUP_ENGINES, 0),
    "soup-1": ("soup", None, SOUP_ENGINES, 1),
}


def lock_soup(seed, ops_per_thread=30):
    """The 4-thread lock-region soup of ``benchmarks/bench_engines.py``
    (the served ``lattice`` workload's generator), every access relevant."""
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench)
    try:
        from bench_engines import _lock_soup
    finally:
        sys.path.remove(bench)
    return _lock_soup(seed, ops_per_thread)


def parity_case(name):
    """``(program, execution, spec, engines)`` for a :data:`PARITY_CASES`
    entry."""
    program, spec, engines, seed = PARITY_CASES[name]
    execution = (lock_soup(seed) if program == "soup"
                 else run_program(xyz_program(),
                                  FixedScheduler(XYZ_OBSERVED_SCHEDULE)))
    return program, execution, spec, list(engines)


def serve_once(execution, program, spec, engines, **config):
    """Serve ``execution`` as one session on a fresh daemon; return the
    client's result-frame verdict and the sealed session record."""
    from repro.server import AnalysisServer, ServerConfig, attach

    config.setdefault("port", 0)
    config.setdefault("drain_timeout", 60.0)
    records = []
    with AnalysisServer(ServerConfig(**config),
                        on_session_end=records.append) as srv:
        session = attach(srv.host, srv.port, n_threads=execution.n_threads,
                         initial=dict(execution.initial_store), spec=spec,
                         program=program, engines=engines)
        for m in execution.messages:
            session.send(m)
        verdict = session.close(timeout=60.0)
    [record] = records
    return verdict, record


def sealed_record(records, budget=10.0):
    """The one session record an ``on_session_end`` callback appended to
    ``records``, waiting up to ``budget`` seconds for it."""
    import time

    deadline = time.monotonic() + budget
    while not records and time.monotonic() < deadline:
        time.sleep(0.02)
    [record] = records
    return record


@pytest.fixture
def landing_execution():
    """The paper's Example 1 observed execution (radio down after landing)."""
    return run_program(landing_controller(), FixedScheduler(LANDING_OBSERVED_SCHEDULE))


@pytest.fixture
def xyz_execution():
    """The paper's Example 2 observed execution (Fig. 6 message labels)."""
    return run_program(xyz_program(), FixedScheduler(XYZ_OBSERVED_SCHEDULE))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
