"""E12 — cost of fault tolerance and the indexed causal-delivery buffer.

Two claims backed by timings:

* the fault-tolerant ingestion path (envelopes, checksums, duplicate
  suppression, gap tracking) costs only a modest constant factor over the
  strict path on a clean wire;
* the indexed release in ``CausalDelivery`` (waiters keyed by their first
  blocking slot) keeps ingestion fast even under heavy reordering, where a
  scan-all-waiters design would go quadratic.

The shape claims assert the fault-injection accounting exactly: health ==
injected plan, verdicts on the analyzed region == fault-free verdicts.
"""

import random

from conftest import table

from repro.observer import (
    FaultPlan,
    FaultyChannel,
    FifoChannel,
    Observer,
    ReorderingChannel,
    deliver_all,
)
from repro.sched import RandomScheduler, run_program
from repro.workloads import random_program

SPEC = "v0 <= 6"


def big_execution(seed=0, ops=60):
    program = random_program(random.Random(seed), n_threads=3, n_vars=4,
                             ops_per_thread=ops, write_ratio=0.5)
    return program, run_program(program, RandomScheduler(seed))


def faulty_delivery(execution, plan):
    channel = FaultyChannel(plan)
    for m in execution.messages:
        channel.put(m)
    channel.close()
    return list(channel.drain()), channel.log


def run_tolerant(execution, variables, delivery, totals, spec=SPEC):
    initial = {v: execution.initial_store[v] for v in variables}
    obs = Observer(execution.n_threads, initial, spec=spec,
                   fault_tolerant=True, causal_log=True)
    obs.receive_batch(delivery)
    obs.finish(expected_totals=totals)
    return obs


def test_fault_accounting_is_exact():
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    totals = [0] * ex.n_threads
    for m in ex.messages:
        totals[m.thread] += 1
    rows = []
    for seed in range(4):
        plan = FaultPlan(drop=0.05, dup=0.05, corrupt=0.03, delay=0.05,
                         seed=seed)
        delivery, log = faulty_delivery(ex, plan)
        obs = run_tolerant(ex, variables, delivery, totals)
        h = obs.health
        assert set(h.losses) == log.lost_slots
        assert h.duplicates_dropped == len(log.duplicated)
        assert h.corrupted == len(log.corrupted)
        assert h.pending == 0
        rows.append((seed, len(ex.messages), len(log.dropped),
                     len(log.duplicated), len(log.corrupted),
                     h.quarantined, h.delivered))
    table("E12 — injected faults vs health report",
          ["seed", "messages", "dropped", "dup", "corrupt", "quarantined",
           "delivered"], rows)


def test_degraded_verdicts_match_clean_prefix():
    program, ex = big_execution(seed=3)
    variables = sorted(program.default_relevance_vars())
    totals = [0] * ex.n_threads
    for m in ex.messages:
        totals[m.thread] += 1
    clean = run_tolerant(ex, variables, list(ex.messages), totals)
    plan = FaultPlan(drop=0.08, seed=5)
    delivery, log = faulty_delivery(ex, plan)
    obs = run_tolerant(ex, variables, delivery, totals)
    delivered = [0] * ex.n_threads
    for m in obs.causal_log:
        delivered[m.thread] += 1
    clean_restricted = {
        (v.cut, v.monitor_state) for v in clean.violations
        if all(v.cut[i] <= delivered[i] for i in range(ex.n_threads))
    }
    assert {(v.cut, v.monitor_state) for v in obs.violations} \
        == clean_restricted


def test_strict_ingestion_benchmark(benchmark):
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    initial = {v: ex.initial_store[v] for v in variables}
    delivery = deliver_all(FifoChannel(), ex.messages)

    def run():
        obs = Observer(ex.n_threads, initial, spec=SPEC)
        obs.receive_batch(delivery)
        obs.finish()
        return obs

    benchmark(run)


def test_tolerant_clean_wire_benchmark(benchmark):
    """Fault-tolerant path on a fault-free wire: the overhead you pay for
    the ability to degrade."""
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    totals = [0] * ex.n_threads
    for m in ex.messages:
        totals[m.thread] += 1
    delivery, _log = faulty_delivery(ex, FaultPlan())
    benchmark(lambda: run_tolerant(ex, variables, delivery, totals))


def test_tolerant_faulty_wire_benchmark(benchmark):
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    totals = [0] * ex.n_threads
    for m in ex.messages:
        totals[m.thread] += 1
    delivery, _log = faulty_delivery(
        ex, FaultPlan(drop=0.05, dup=0.05, corrupt=0.03, seed=2))
    benchmark(lambda: run_tolerant(ex, variables, delivery, totals))


def test_delivery_buffer_reordered_benchmark(benchmark):
    """Heavy reordering stresses the indexed release: many messages park
    and cascade out when their blocking slot fills."""
    program, ex = big_execution(ops=120)
    variables = sorted(program.default_relevance_vars())
    initial = {v: ex.initial_store[v] for v in variables}
    delivery = deliver_all(ReorderingChannel(seed=9, window=32), ex.messages)

    def run():
        obs = Observer(ex.n_threads, initial, causal_log=True)
        obs.receive_batch(delivery)
        return obs

    obs = run()
    assert len(obs.causal_log) == len(ex.messages)
    benchmark(run)
