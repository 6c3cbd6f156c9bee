"""Per-engine batch-vs-single parity through the Observer (satellite of
PR 8, mirroring ``tests/observer/test_batching.py`` for the new engines).

``Observer.receive_batch`` exists purely for throughput: with any engine
mix riding the bus it must be observationally identical to per-item
``receive`` — same per-engine verdicts (violations, counterexample texts,
soundness, degraded windows), same causal log, same health — across
clean, shuffled, chunked and fault-injected streams.
"""

import random

import pytest

from repro.core.events import Envelope
from repro.observer import Observer

from .conftest import lock_execution

#: The multi-engine mixes under test.  ``v0 >= 0`` is clean on every
#: lock program (values are 0..9), so LTL exercises the lattice without
#: drowning the parity diff in violations.
MIXES = [
    ["atomicity"],
    ["pattern:W(v0);R(v0)"],
    ["atomicity", "pattern:W(v0);R(v0);W(v1)"],
    ["ltl:v0 >= 0", "atomicity", "pattern:R(v1);W(v1)"],
]


def shuffled(messages, seed):
    msgs = list(messages)
    random.Random(seed).shuffle(msgs)
    return msgs


def faulty_stream(messages, seed, drop=0.15, dup=0.15):
    """Drop/duplicate messages and splice in one corrupt envelope —
    the fault-injection shape of ``tests/observer/test_batching.py``."""
    rng = random.Random(seed)
    stream = []
    for m in messages:
        if rng.random() < drop:
            continue
        stream.append(m)
        if rng.random() < dup:
            stream.append(m)
    env = Envelope.wrap(messages[0], seq=0)
    bad = Envelope(message=env.message, seq=env.seq,
                   checksum=env.checksum ^ 0xFF)
    stream.insert(len(stream) // 2, bad)
    return stream


def drain(observer, items, chunk):
    found = []
    if chunk is None:
        for item in items:
            found.extend(observer.receive(item))
    else:
        for i in range(0, len(items), chunk):
            found.extend(observer.receive_batch(items[i:i + chunk]))
    return found


def assert_verdict_parity(one, many):
    docs_one = [v.to_json() for v in one.engine_verdicts()]
    docs_many = [v.to_json() for v in many.engine_verdicts()]
    assert docs_one == docs_many
    assert one.counterexamples() == many.counterexamples()
    assert [m.event.eid for m in one.causal_log] == \
           [m.event.eid for m in many.causal_log]
    assert one.health == many.health


class TestCleanStreams:
    @pytest.mark.parametrize("engines", MIXES, ids=[",".join(
        s.partition(":")[0] for s in m) for m in MIXES])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_single_in_order(self, engines, seed):
        ex = lock_execution(seed)
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, engines=engines, causal_log=True)
        many = Observer(ex.n_threads, init, engines=engines, causal_log=True)
        msgs = list(ex.messages)
        drain(one, msgs, None)
        drain(many, msgs, 5)
        one.finish()
        many.finish()
        assert_verdict_parity(one, many)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_batch_equals_single_shuffled(self, seed):
        """Order-requiring engines route strict ingestion through the
        delivery buffer: a shuffled stream still reaches every engine in
        causal order, identically for both entry points."""
        ex = lock_execution(seed)
        engines = ["atomicity", "pattern:W(v0);R(v0)"]
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, engines=engines)
        many = Observer(ex.n_threads, init, engines=engines)
        msgs = shuffled(ex.messages, seed)
        drain(one, msgs, None)
        drain(many, msgs, 7)
        one.finish()
        many.finish()
        assert_verdict_parity(one, many)

    def test_uneven_chunks(self):
        ex = lock_execution(6)
        engines = ["atomicity", "pattern:R(v0);W(v0)"]
        observers = [Observer(ex.n_threads, dict(ex.initial_store),
                              engines=engines) for _ in range(3)]
        msgs = list(ex.messages)
        drain(observers[0], msgs, None)
        drain(observers[1], msgs, 1)
        drain(observers[2], msgs, len(msgs))
        for o in observers:
            o.finish()
        assert_verdict_parity(observers[0], observers[1])
        assert_verdict_parity(observers[0], observers[2])


class TestFaultInjection:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_tolerant_absorbs_faults_identically(self, seed):
        ex = lock_execution(seed % 3)
        engines = ["ltl:v0 >= 0", "atomicity", "pattern:W(v0);R(v0)"]
        stream = faulty_stream(list(ex.messages), seed)
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, engines=engines,
                       fault_tolerant=True, causal_log=True)
        many = Observer(ex.n_threads, init, engines=engines,
                        fault_tolerant=True, causal_log=True)
        drain(one, stream, None)
        drain(many, stream, 5)
        one.finish()
        many.finish()
        assert one.health.corrupted == 1
        assert_verdict_parity(one, many)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_degraded_finish_parity(self, seed):
        """Dropping a whole suffix degrades every engine's verdict the
        same way on both ingestion paths (finish_partial through the bus).
        """
        ex = lock_execution(seed)
        engines = ["atomicity", "pattern:W(v0);R(v0)"]
        msgs = list(ex.messages)[: 2 * len(ex.messages) // 3]
        totals = [0] * ex.n_threads
        for m in ex.messages:
            totals[m.thread] += 1
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, engines=engines,
                       fault_tolerant=True, causal_log=True)
        many = Observer(ex.n_threads, init, engines=engines,
                        fault_tolerant=True, causal_log=True)
        drain(one, msgs, None)
        drain(many, msgs, 4)
        one.finish(expected_totals=totals)
        many.finish(expected_totals=totals)
        assert_verdict_parity(one, many)
        docs = [v.to_json() for v in one.engine_verdicts()]
        assert any(not d["sound"] for d in docs)
        for d in docs:
            assert d["sound"] is False
            assert d["degraded_windows"]

    def test_strict_duplicate_raises_after_prefix(self):
        ex = lock_execution(9)
        obs = Observer(ex.n_threads, dict(ex.initial_store),
                       engines=["atomicity"])
        msgs = list(ex.messages[:4])
        with pytest.raises(ValueError, match="duplicate"):
            obs.receive_batch(msgs + [msgs[0]])
        assert obs.health.delivered == 4


class TestEngineAccessors:
    def test_violations_accessor_tracks_ltl_only(self):
        """`Observer.violations` stays the LTL back-compat view; other
        engines report through `engine_verdicts`."""
        ex = lock_execution(0)
        obs = Observer(ex.n_threads, dict(ex.initial_store),
                       engines=["ltl:v0 >= 0", "atomicity"])
        for m in ex.messages:
            obs.receive(m)
        obs.finish()
        assert obs.violations == []             # v0 >= 0 is clean
        names = [v.engine for v in obs.engine_verdicts()]
        assert names == ["ltl", "atomicity"]

    def test_spec_only_observer_is_single_ltl(self):
        ex = lock_execution(1)
        obs = Observer(ex.n_threads, dict(ex.initial_store),
                       spec="v0 >= 0")
        assert [e.name for e in obs.engines] == ["ltl"]
        assert obs.stats is not None

    def test_engineless_observer_has_empty_bus(self):
        ex = lock_execution(1)
        obs = Observer(ex.n_threads, dict(ex.initial_store))
        for m in ex.messages:
            assert obs.receive(m) == []
        assert obs.finish() == []
        assert obs.engine_verdicts() == []
