"""End-to-end integration fuzzing: the full Fig. 4 pipeline over random
programs, schedules, delivery orders, and specifications.

Each case runs: program → Algorithm A → channel → observer → lattice →
monitor, and cross-checks every layer against its independent counterpart
(oracle causality, full-lattice engine, single-trace monitor).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import detect, predict
from repro.core import Computation
from repro.core.vectorclock import lt
from repro.lattice import ComputationLattice, LevelByLevelBuilder
from repro.logic import Monitor, evaluate_trace
from repro.observer import Observer, ReorderingChannel, deliver_all
from repro.sched import RandomScheduler, run_program
from repro.workloads import random_program

from .conftest import V1_XYZ_TRACE

SPECS = [
    "historically(v0 >= 0)",
    "start(v0 > 0) -> once(v1 > 0)",
    "[v0 > 0, v1 > 0) or v1 <= 0 or true",
    "(v0 > 1) -> prev(v0 >= 0)",
]


def pipeline_case(seed: int, spec: str):
    rng = random.Random(seed)
    program = random_program(rng, n_threads=3, n_vars=2, ops_per_thread=4,
                             write_ratio=0.7)
    execution = run_program(program, RandomScheduler(seed))
    return program, execution


@given(st.integers(0, 2_000), st.sampled_from(SPECS))
@settings(max_examples=60, deadline=None)
def test_full_pipeline_consistency(seed, spec):
    program, execution = pipeline_case(seed, spec)

    # 1. Theorem 3 against the oracle.
    comp = Computation(execution.events)
    by_eid = {m.event.eid: m for m in execution.messages}
    for a, b, truth in comp.relevant_pairs():
        assert by_eid[a.eid].causally_precedes(by_eid[b.eid]) == truth
        assert lt(tuple(by_eid[a.eid].clock), tuple(by_eid[b.eid].clock)) == truth

    # 2. Observed-run verdict: monitor == brute-force semantics.
    monitor = Monitor(spec)
    variables = sorted(monitor.variables)
    states = [dict(zip(variables, t))
              for t in execution.relevant_state_sequence(variables)]
    flat = evaluate_trace(monitor.formula, states)
    ok, idx = monitor.check_trace(states)
    assert ok == all(flat)
    if not ok:
        assert idx == flat.index(False)

    # 3. Engines agree (existence of violations).
    full = predict(execution, spec, mode="full")
    levels = predict(execution, spec, mode="levels")
    assert bool(full.violations) == bool(levels.violations)
    assert full.observed_ok == levels.observed_ok == ok

    # 4. Delivery reordering and batching change nothing: every observer
    #    configuration reproduces the offline level-by-level sweep exactly.
    delivery = deliver_all(ReorderingChannel(seed=seed, window=4),
                           execution.messages)
    initial = {v: execution.initial_store[v] for v in variables}
    expected = [v.pretty(variables) for v in levels.violations]
    for selection in ({"spec": spec},
                      {"engines": [f"ltl:{spec}", "atomicity"]}):
        for batch in (1, 3, 64):
            obs = Observer(execution.n_threads, initial, **selection)
            for i in range(0, len(delivery), batch):
                obs.receive_batch(delivery[i:i + batch])
            obs.finish()
            where = (selection, batch)
            assert obs.engines[0].counterexamples() == expected, where
            assert obs.stats.nodes_expanded == \
                levels.stats.nodes_expanded, where
            assert obs.stats.levels_completed == \
                levels.stats.levels_completed, where


@given(st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_lattice_counts_consistent(seed):
    """Full lattice size == level-by-level node count == number of
    consistent cuts by brute force."""
    rng = random.Random(seed)
    program = random_program(rng, n_threads=2, n_vars=2, ops_per_thread=4,
                             write_ratio=0.6)
    execution = run_program(program, RandomScheduler(seed))
    variables = sorted(program.default_relevance_vars())
    initial = {v: execution.initial_store[v] for v in variables}

    full = ComputationLattice(2, initial, execution.messages)
    builder = LevelByLevelBuilder(2, initial)
    builder.feed_many(execution.messages)
    builder.finish()
    assert builder.stats.nodes_expanded == len(full)

    # brute force: every (k0, k1) pair checked for downward closure
    from repro.lattice.cut import MessageChains

    chains = MessageChains(2)
    for m in execution.messages:
        chains.insert(m)
    totals = chains.totals()
    brute = sum(
        1
        for k0 in range(totals[0] + 1)
        for k1 in range(totals[1] + 1)
        if chains.is_consistent((k0, k1))
    )
    assert brute == len(full)


@given(st.integers(0, 1_000))
@settings(max_examples=20, deadline=None)
def test_observed_run_is_in_lattice(seed):
    """The observed execution is one of the lattice's runs (the paper: 'the
    observed sequence of events is just one such run')."""
    rng = random.Random(seed)
    program = random_program(rng, n_threads=2, n_vars=2, ops_per_thread=4,
                             write_ratio=0.8)
    execution = run_program(program, RandomScheduler(seed))
    variables = sorted(program.default_relevance_vars())
    initial = {v: execution.initial_store[v] for v in variables}
    lat = ComputationLattice(2, initial, execution.messages)
    observed = tuple(m.event.eid for m in execution.messages)
    runs = {tuple(m.event.eid for m in run.messages) for run in lat.runs()}
    assert observed in runs


class TestSocketEndToEnd:
    def test_trace_socket_observer_agree(self):
        """record → socket → analysis server and record → file → builder
        agree."""
        from repro.observer.trace import read_trace
        from repro.server import AnalysisServer, ServerConfig, attach
        from repro.sched import FixedScheduler
        from repro.workloads import (
            XYZ_OBSERVED_SCHEDULE,
            XYZ_PROPERTY,
            xyz_program,
        )

        execution = run_program(xyz_program(),
                                FixedScheduler(XYZ_OBSERVED_SCHEDULE))
        # via socket
        with AnalysisServer(ServerConfig(port=0)) as srv:
            with attach(srv.host, srv.port, n_threads=2,
                        initial={"x": -1, "y": 0, "z": 0},
                        spec=XYZ_PROPERTY) as session:
                for m in execution.messages:
                    session.send(m)
        # via trace file: the same run, recorded as v1 JSON lines
        trace = read_trace(V1_XYZ_TRACE)
        assert [m.to_json() for m in trace.messages] == \
            [m.to_json() for m in execution.messages]
        b = LevelByLevelBuilder(2, {"x": -1, "y": 0, "z": 0},
                                Monitor(XYZ_PROPERTY))
        b.feed_many(trace.messages)
        b.finish()
        assert session.verdict.violations == len(b.violations) == 1
        assert list(session.verdict.counterexamples) == \
            [v.pretty(("x", "y", "z")) for v in b.violations]
