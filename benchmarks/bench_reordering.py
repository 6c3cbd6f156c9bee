"""E7 — tolerance to message reordering (§2.2), and its buffering cost.

The observer must compute identical verdicts whatever the delivery order;
this bench validates verdict-invariance across adversarial channels and
times observer ingestion under FIFO vs reordered vs multi-channel delivery
(the buffering/stall overhead of out-of-order arrival).
"""

import random

from conftest import table

from repro.core.causality import CausalityIndex
from repro.observer import (
    FifoChannel,
    MultiChannel,
    Observer,
    ReorderingChannel,
    deliver_all,
)
from repro.sched import RandomScheduler, run_program
from repro.workloads import XYZ_PROPERTY, XYZ_VARS, random_program


def big_execution(seed=0):
    program = random_program(random.Random(seed), n_threads=3, n_vars=4,
                             ops_per_thread=40, write_ratio=0.5)
    return program, run_program(program, RandomScheduler(seed))


def observe(execution, variables, delivery, spec=None, causal_log=False):
    initial = {v: execution.initial_store[v] for v in variables}
    obs = Observer(execution.n_threads, initial, spec=spec,
                   causal_log=causal_log)
    obs.receive_batch(delivery)
    obs.finish()
    return obs


def test_verdict_invariance_across_channels(xyz_execution):
    verdicts = []
    channels = [
        ("fifo", FifoChannel()),
        ("reorder-w3", ReorderingChannel(seed=1, window=3)),
        ("reorder-unbounded", ReorderingChannel(seed=2, window=None)),
        ("multi-2", MultiChannel(k=2, seed=3)),
    ]
    rows = []
    for name, ch in channels:
        delivery = deliver_all(ch, xyz_execution.messages)
        obs = observe(xyz_execution, XYZ_VARS, delivery, spec=XYZ_PROPERTY)
        verdicts.append(len(obs.violations))
        rows.append((name, [m.event.label for m in delivery],
                     len(obs.violations)))
    table("E7 — delivery order vs verdict", ["channel", "order", "violations"],
          rows)
    assert set(verdicts) == {1}


def test_causality_identical_under_reordering():
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    ref = observe(ex, variables, list(ex.messages), causal_log=True)
    ref_idx = CausalityIndex(ex.n_threads, ref.causal_log)
    assert len(ref_idx) == len(ex.messages)
    ref_matrix = ref_idx.relation_matrix()
    ref_eids = [m.event.eid for m in ref_idx.messages]
    for seed in range(4):
        delivery = deliver_all(ReorderingChannel(seed=seed, window=5),
                               ex.messages)
        obs = observe(ex, variables, delivery, causal_log=True)
        idx = CausalityIndex(ex.n_threads, obs.causal_log)
        # align by event id before comparing relations
        order = [idx.messages.index(idx.message(e)) for e in ref_eids]
        m = idx.relation_matrix()[order][:, order]
        assert (m == ref_matrix).all()


def test_observer_fifo_benchmark(benchmark):
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    delivery = deliver_all(FifoChannel(), ex.messages)
    benchmark(lambda: observe(ex, variables, delivery))


def test_observer_reordered_benchmark(benchmark):
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    delivery = deliver_all(ReorderingChannel(seed=7, window=8), ex.messages)
    benchmark(lambda: observe(ex, variables, delivery))


def test_observer_multichannel_benchmark(benchmark):
    program, ex = big_execution()
    variables = sorted(program.default_relevance_vars())
    delivery = deliver_all(MultiChannel(k=3, seed=7), ex.messages)
    benchmark(lambda: observe(ex, variables, delivery))
