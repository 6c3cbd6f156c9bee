"""Spec-relevance slicing (ISSUE 4) — event volume, full vs sliced.

The slicer (``repro.staticcheck.slicer``) computes the transitively-closed
relevant-variable set from a specification and the program's data flow;
Algorithm A's relevance predicate (``SliceResult.predicate()``) then sends
no message for anything outside it, while still merging its clocks.  This benchmark measures what the paper's
"extract the relevant variables from the specification" (§4.1) buys: total
event/message counts and events/sec of the monitored run, full vs sliced,
on three workloads.  Shape expected: sliced runs never emit more, and emit
strictly less wherever the spec leaves a variable out of the slice;
verdicts are identical either way (the parity tests pin this).
"""

import time

from conftest import table

from repro.analysis import predict
from repro.sched import RandomScheduler, run_program
from repro.staticcheck import close_slice, python_flows, spec_variables
from repro.workloads import (
    handoff,
    producer_consumer,
    transfer_program,
    xyz_program,
)

#: (name, program factory, spec) — specs chosen so at least one shared
#: variable falls outside the slice.
WORKLOADS = [
    ("xyz", xyz_program, "x >= -1"),
    ("bank", transfer_program, "audited == 0 || audited == 1"),
    ("prodcons", lambda: producer_consumer(3), "consumed >= 0"),
    ("handoff", handoff, "done == 0 || data == 42"),
]

SEED = 11


def compute_slice(factory, spec):
    program = factory()
    shared = program.default_relevance_vars()
    flows = python_flows(list(program.threads), shared)
    return close_slice(spec_variables(spec), flows, shared=shared)


def timed_run(factory, relevance):
    start = time.perf_counter()
    ex = run_program(factory(), RandomScheduler(SEED), relevance=relevance)
    elapsed = time.perf_counter() - start
    return ex, elapsed


def test_slicing_event_volume_shape():
    rows = []
    any_reduced = False
    for name, factory, spec in WORKLOADS:
        sl = compute_slice(factory, spec)
        full, t_full = timed_run(factory, None)
        sliced, t_sliced = timed_run(factory, sl.predicate())

        v_full = predict(full, spec)
        v_sliced = predict(sliced, spec)
        assert (v_full.observed_ok, bool(v_full.violations)) == \
            (v_sliced.observed_ok, bool(v_sliced.violations)), name

        n_full, n_sliced = len(full.messages), len(sliced.messages)
        assert n_sliced <= n_full, name
        if sl.irrelevant:
            assert n_sliced < n_full, name
            any_reduced = True
        rate_full = n_full / t_full if t_full else float("inf")
        rate_sliced = n_sliced / t_sliced if t_sliced else float("inf")
        reduction = 100.0 * (1 - n_sliced / n_full) if n_full else 0.0
        rows.append((name, len(sl.relevant), len(sl.irrelevant),
                     n_full, n_sliced, f"{reduction:.0f}%",
                     f"{rate_full:,.0f}", f"{rate_sliced:,.0f}"))
    table("Spec-relevance slicing — observer message volume",
          ["workload", "relevant", "sliced out", "msgs full", "msgs sliced",
           "reduction", "msg/s full", "msg/s sliced"], rows)
    assert any_reduced  # slicing pays off on at least one workload


def test_slice_computation_is_cheap(benchmark):
    name, factory, spec = WORKLOADS[0]
    sl = benchmark(lambda: compute_slice(factory, spec))
    assert "x" in sl.relevant


def test_full_run_benchmark(benchmark):
    _, factory, _ = WORKLOADS[0]
    ex = benchmark(lambda: run_program(factory(), RandomScheduler(SEED)))
    assert ex.messages


def test_sliced_run_benchmark(benchmark):
    name, factory, spec = WORKLOADS[0]
    sl = compute_slice(factory, spec)
    ex = benchmark(lambda: run_program(factory(), RandomScheduler(SEED),
                                       relevance=sl.predicate()))
    assert len(ex.messages) > 0
