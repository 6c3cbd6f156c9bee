"""Verdict parity: spec-sliced instrumentation must not change analyses.

Slicing has one mechanism, Algorithm A's relevance predicate
(``SliceResult.predicate()``), exercised on both routes:

* the cooperative scheduler route — run the same deterministic schedule
  with the default relevance vs the slice's predicate and compare
  ``predict`` verdicts;
* the AST route — ``InstrumentedRuntime(relevance=sl.predicate())``
  under ``instrument_function`` with a deterministic sequential thread
  order.

The slice always contains the spec's variables, so every message the
monitor can see survives, and irrelevant accesses still merge clocks, so
the causal order among them is exact; the tests also assert the slice
actually *removes* messages somewhere (the paper's bandwidth win).
"""

import threading

import pytest

from repro.analysis import predict
from repro.instrument import InstrumentedRuntime, instrument_function
from repro.instrument.threads import to_execution_result
from repro.sched import RandomScheduler, explore_all, run_program
from repro.sched.program import Program, Read, Write
from repro.staticcheck import (
    close_slice,
    python_flows,
    slice_python_functions,
    spec_variables,
)
from repro.workloads import (
    AUDIT_PROPERTY,
    XYZ_PROPERTY,
    handoff,
    producer_consumer,
    transfer_program,
    xyz_program,
)
from repro.workloads.instrumented import (
    LANDING_AST_SHARED,
    controller,
    radio_watchdog,
)

CASES = [
    # (factory, spec, narrow_spec)
    (xyz_program, XYZ_PROPERTY, "x >= -1"),
    (transfer_program, AUDIT_PROPERTY, "audited == 0 || audited == 1"),
    (lambda: producer_consumer(2), "consumed >= 0", "consumed >= 0"),
    (handoff, "done == 0 || data == 42", "done == 0 || data == 42"),
]


def _slice_for(program_factory, spec):
    program = program_factory()
    shared = program.default_relevance_vars()
    flows = python_flows(list(program.threads), shared)
    return program, close_slice(spec_variables(spec), flows, shared=shared)


def _verdict(execution, spec):
    report = predict(execution, spec, mode="full")
    return (report.observed_ok, bool(report.violations))


class TestPredicateSlicingParity:
    @pytest.mark.parametrize("factory,spec,narrow", CASES,
                             ids=["xyz", "bank", "prodcons", "handoff"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_verdicts_match(self, factory, spec, narrow, seed):
        for used_spec in {spec, narrow}:
            program, sl = _slice_for(factory, used_spec)
            full = run_program(factory(), RandomScheduler(seed))
            sliced = run_program(factory(), RandomScheduler(seed),
                                 relevance=sl.predicate())
            assert _verdict(full, used_spec) == _verdict(sliced, used_spec)
            assert len(sliced.messages) <= len(full.messages)

    def test_narrow_spec_reduces_messages_on_xyz(self):
        _, sl = _slice_for(xyz_program, "x >= -1")
        assert sl.irrelevant  # y/z sliced out
        full = run_program(xyz_program(), RandomScheduler(3))
        sliced = run_program(xyz_program(), RandomScheduler(3),
                             relevance=sl.predicate())
        assert len(sliced.messages) < len(full.messages)
        assert _verdict(full, "x >= -1") == _verdict(sliced, "x >= -1")

    def test_slice_always_contains_spec_vars(self):
        for factory, spec, narrow in CASES:
            for s in (spec, narrow):
                _, sl = _slice_for(factory, s)
                assert spec_variables(s) <= sl.relevant


def _run_sequential(entries, shared, initial, relevance=None):
    """Deterministic AST-route run: each entry function fully precedes the
    next, the first on the calling thread and each later one on a new
    thread."""
    rt = InstrumentedRuntime(dict(initial), relevance=relevance)
    first, *rest = [instrument_function(fn, set(shared), rt)
                    for fn in entries]
    rt.register_thread(0)
    first()
    for fn in rest:
        worker = threading.Thread(target=fn)
        worker.start()
        worker.join()
    return rt, to_execution_result(rt, "ast-sequential")


_LANDING_INITIAL = {"landing": 0, "approved": 0, "radio": 1, "ticks": 0}


class TestAstSlicingParity:
    SPEC = "start(landing == 1) -> [approved == 1, radio == 0)"

    def _runs(self):
        entries = (controller, radio_watchdog)
        sl = slice_python_functions(entries, LANDING_AST_SHARED, self.SPEC)
        assert sl.irrelevant == {"ticks"}
        full = _run_sequential(entries, LANDING_AST_SHARED, _LANDING_INITIAL)
        sliced = _run_sequential(entries, LANDING_AST_SHARED,
                                 _LANDING_INITIAL, relevance=sl.predicate())
        return full, sliced

    def test_verdict_parity_and_message_reduction(self):
        (_, full), (_, sliced) = self._runs()
        assert _verdict(full, self.SPEC) == _verdict(sliced, self.SPEC)
        # 'ticks' writes send no message under the slice's predicate.
        assert len(sliced.messages) < len(full.messages)
        assert not any(m.event.var == "ticks" for m in sliced.messages)
        assert any(m.event.var == "ticks" for m in full.messages)

    def test_store_identical_under_slicing(self):
        (rt_full, _), (rt_sliced, _) = self._runs()
        assert rt_full.store == rt_sliced.store


# A control dependence the data-flow slicer does not follow: ``y`` is
# written only once the reader has seen ``d == 1``, which the writer sets
# after ``x = 1``.  The slice of CONTROL_SPEC leaves ``d`` out, yet every
# feasible run has ``x == 1`` whenever ``y == 1`` — the clock merge on the
# read of ``d`` must keep that order when ``d`` sends no message.
CONTROL_SPEC = "(y == 1) -> (x == 1)"
CONTROL_SHARED = ("x", "y", "d")
_CONTROL_INITIAL = {"x": 0, "y": 0, "d": 0}


def _writer():
    x = 1  # noqa: F841
    d = 1  # noqa: F841


def _reader():
    if d == 1:  # noqa: F821
        y = 1  # noqa: F841


def _control_program():
    def writer():
        yield Write("x", 1)
        yield Write("d", 1)

    def reader():
        d = yield Read("d")
        if d == 1:
            yield Write("y", 1)

    return Program(initial=_CONTROL_INITIAL, threads=[writer, reader],
                   name="control-dependence")


def _predicted_violations(execution):
    return len(predict(execution, CONTROL_SPEC, mode="full").violations)


class TestControlDependenceKeepsCausality:
    def test_generator_program(self):
        program = _control_program()
        shared = program.default_relevance_vars()
        sl = close_slice(spec_variables(CONTROL_SPEC),
                         python_flows(list(program.threads), shared),
                         shared=shared)
        assert sl.relevant == {"x", "y"}
        runs = list(explore_all(_control_program()))
        assert runs and all(
            predict(run, CONTROL_SPEC, mode="full").observed_ok
            for run in runs)
        wrote_y = 0
        for seed in range(8):
            sliced = run_program(_control_program(), RandomScheduler(seed),
                                 relevance=sl.predicate())
            assert _predicted_violations(sliced) == 0
            wrote_y += sliced.final_store["y"] == 1
        assert wrote_y  # some seed took the branch the slice cannot see

    def test_ast_functions(self):
        entries = (_writer, _reader)
        sl = slice_python_functions(entries, CONTROL_SHARED, CONTROL_SPEC)
        assert sl.irrelevant == {"d"}
        _, full = _run_sequential(entries, CONTROL_SHARED, _CONTROL_INITIAL)
        rt, sliced = _run_sequential(entries, CONTROL_SHARED,
                                     _CONTROL_INITIAL,
                                     relevance=sl.predicate())
        assert rt.store["y"] == 1
        assert _predicted_violations(full) == 0
        assert _predicted_violations(sliced) == 0
        assert len(sliced.messages) < len(full.messages)
