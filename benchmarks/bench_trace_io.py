"""Causal-delivery throughput.

The deployment-facing cost of pushing messages through the causal-delivery
buffer, in order and under bounded reordering.  Trace-file write and read
throughput (the v2 format, the only one written) is measured in
``bench_store.py``.
"""

import random

from repro.core import AlgorithmA
from repro.observer.delivery import CausalDelivery


def make_messages(n, n_threads=4, seed=0):
    rng = random.Random(seed)
    algo = AlgorithmA(n_threads)
    for k in range(n):
        algo.on_write(rng.randrange(n_threads), f"v{k % 8}", k)
    return algo.emitted


def test_causal_delivery_fifo_benchmark(benchmark):
    msgs = make_messages(n=2_000)

    def run():
        d = CausalDelivery(4)
        out = d.offer_batch(msgs)
        assert d.pending == 0
        return out

    out = benchmark(run)
    assert len(out) == 2_000


def test_causal_delivery_reordered_benchmark(benchmark):
    msgs = make_messages(n=2_000)
    scrambled = list(msgs)
    # bounded scrambling (window 16) keeps the buffer small, the realistic
    # network case; full shuffles make the buffer quadratic by design
    rng = random.Random(3)
    for i in range(0, len(scrambled) - 16, 16):
        window = scrambled[i:i + 16]
        rng.shuffle(window)
        scrambled[i:i + 16] = window

    def run():
        d = CausalDelivery(4)
        out = d.offer_batch(scrambled)
        assert d.pending == 0
        return out

    out = benchmark(run)
    assert len(out) == 2_000
