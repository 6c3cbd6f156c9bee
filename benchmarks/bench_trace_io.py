"""Trace-file and wire-format throughput.

The deployment-facing costs: serializing the message stream to a trace file
(streaming writer, the Algorithm A sink path), loading it back, and pushing
messages through the causal-delivery buffer under adversarial reordering.
"""

import random

from repro.core import AlgorithmA
from repro.observer.delivery import CausalDelivery
from repro.observer.trace import read_trace, write_trace

N_EVENTS = 5_000


def make_messages(n=N_EVENTS, n_threads=4, seed=0):
    rng = random.Random(seed)
    algo = AlgorithmA(n_threads)
    for k in range(n):
        algo.on_write(rng.randrange(n_threads), f"v{k % 8}", k)
    return algo.emitted


def test_trace_write_benchmark(benchmark, tmp_path):
    msgs = make_messages()
    path = tmp_path / "big.trace"

    def write():
        return write_trace(path, 4, {f"v{i}": 0 for i in range(8)}, msgs)

    assert benchmark(write) == N_EVENTS


def test_trace_read_benchmark(benchmark, tmp_path):
    msgs = make_messages()
    path = tmp_path / "big.trace"
    write_trace(path, 4, {f"v{i}": 0 for i in range(8)}, msgs)
    trace = benchmark(lambda: read_trace(path))
    assert len(trace.messages) == N_EVENTS
    # round-trip fidelity on a sample
    assert [tuple(m.clock) for m in trace.messages[:50]] == [
        tuple(m.clock) for m in msgs[:50]]


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
