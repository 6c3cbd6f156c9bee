"""Chunking parity: how a stream is cut into batches changes nothing.

Every ingestion layer (``Observer.receive_batch`` →
``CausalDelivery.offer_batch`` → ``AnalysisBus.feed_batch`` →
``LtlEngine.feed_batch`` → ``LevelByLevelBuilder.feed_many``) has one
implementation, the batch one; its per-item name is a batch of one.  These
tests pin down that feeding one item at a time and feeding chunks are
*observationally identical* — same releases in the same order, same causal
log, same violations, same health report, same counters, same stall-driven
loss declarations — across clean, shuffled and faulty streams.
"""

import random

import pytest

from repro.core.causality import CausalityIndex
from repro.core.events import Envelope
from repro.obs import metrics
from repro.observer import Observer
from repro.observer.delivery import CausalDelivery
from repro.observer.faults import FaultPlan, FaultyChannel
from repro.sched import FixedScheduler, RandomScheduler, run_program
from repro.workloads import (
    LANDING_OBSERVED_SCHEDULE,
    LANDING_PROPERTY,
    landing_controller,
    racy_counter,
    random_program,
)


def landing_messages():
    ex = run_program(landing_controller(),
                     FixedScheduler(LANDING_OBSERVED_SCHEDULE))
    return ex


def shuffled(messages, seed):
    msgs = list(messages)
    random.Random(seed).shuffle(msgs)
    return msgs


def make_execution(seed, n_threads=3, ops=8):
    program = random_program(random.Random(seed), n_threads=n_threads,
                             n_vars=3, ops_per_thread=ops, write_ratio=0.7)
    return run_program(program, RandomScheduler(seed))


class TestDeliveryOfferBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_singles_on_shuffled_stream(self, seed):
        ex = make_execution(seed)
        msgs = shuffled(ex.messages, seed)
        a, b = CausalDelivery(ex.n_threads), CausalDelivery(ex.n_threads)
        singles = []
        for m in msgs:
            singles.extend(a.offer(m))
        batched = b.offer_batch(msgs)
        assert [m.event.eid for m in singles] == [m.event.eid for m in batched]
        assert a.delivered_counts == b.delivered_counts
        assert a.pending == b.pending

    def test_duplicates_and_chunks(self):
        ex = make_execution(5)
        msgs = shuffled(ex.messages, 5)
        msgs = msgs + msgs[: len(msgs) // 2]  # trailing duplicates
        a, b = CausalDelivery(ex.n_threads), CausalDelivery(ex.n_threads)
        singles = []
        for m in msgs:
            singles.extend(a.offer(m))
        batched = []
        for i in range(0, len(msgs), 7):  # uneven chunking
            batched.extend(b.offer_batch(msgs[i:i + 7]))
        assert [m.event.eid for m in singles] == [m.event.eid for m in batched]
        assert a.duplicates_dropped == b.duplicates_dropped > 0

    def test_counter_totals_match_singles(self):
        ex = make_execution(2)
        msgs = shuffled(ex.messages, 2) + [ex.messages[0]]  # one dup
        metrics.enable(reset=True)
        try:
            a = CausalDelivery(ex.n_threads)
            for m in msgs:
                a.offer(m)
            single_snap = {
                k: v for k, v in metrics.REGISTRY.snapshot().items()
                if k.startswith("delivery.") and k != "delivery.batch_size"
                and "histogram" not in str(v.get("kind", ""))
            }
            metrics.reset()
            b = CausalDelivery(ex.n_threads)
            b.offer_batch(msgs)
            batch_snap = {
                k: v for k, v in metrics.REGISTRY.snapshot().items()
                if k in single_snap
            }
            for name, inst in single_snap.items():
                if "value" in inst:
                    assert batch_snap[name]["value"] == inst["value"], name
            bs = metrics.REGISTRY.snapshot()["delivery.batch_size"]
            assert bs["count"] == 1 and bs["max"] == len(msgs)
        finally:
            metrics.disable()

    def test_lost_cone_outcomes(self):
        ex = make_execution(7, n_threads=3, ops=6)
        msgs = list(ex.messages)
        # drop thread 0's first message, declare it lost, then batch-offer
        # everything else: late/quarantined accounting must match singles
        victim = next(m for m in msgs if m.thread == 0)
        rest = [m for m in msgs if m is not victim]
        a, b = CausalDelivery(ex.n_threads), CausalDelivery(ex.n_threads)
        a.declare_lost([(victim.thread, victim.clock[victim.thread])])
        b.declare_lost([(victim.thread, victim.clock[victim.thread])])
        singles = []
        for m in rest + [victim]:
            singles.extend(a.offer(m))
        batched = b.offer_batch(rest + [victim])
        assert [m.event.eid for m in singles] == [m.event.eid for m in batched]
        assert a.late_arrivals == b.late_arrivals == 1
        assert a.quarantined == b.quarantined
        assert a._held == b._held


class TestObserverReceiveBatch:
    @pytest.mark.parametrize("kwargs", [
        {},                                         # strict
        {"causal_log": True},                       # strict + causal log
        {"fault_tolerant": True, "causal_log": True},   # tolerant
        {"spec": LANDING_PROPERTY},                 # strict + ltl engine
        {"spec": LANDING_PROPERTY, "causal_log": True},
        {"spec": LANDING_PROPERTY, "fault_tolerant": True,
         "causal_log": True},
    ], ids=["plain", "log", "tolerant", "spec", "spec-log", "spec-tolerant"])
    @pytest.mark.parametrize("order_seed", [None, 13])
    def test_parity_with_receive(self, kwargs, order_seed):
        ex = landing_messages()
        msgs = (list(ex.messages) if order_seed is None
                else shuffled(ex.messages, order_seed))
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, **kwargs)
        many = Observer(ex.n_threads, init, **kwargs)
        v_one = []
        for m in msgs:
            v_one.extend(one.receive(m))
        v_many = []
        for i in range(0, len(msgs), 5):
            v_many.extend(many.receive_batch(msgs[i:i + 5]))
        v_one += one.finish()
        v_many += many.finish()
        assert [v.cut for v in v_one] == [v.cut for v in v_many]
        assert [m.event.eid for m in one.causal_log] == \
               [m.event.eid for m in many.causal_log]
        assert one.health.delivered == many.health.delivered
        assert one.health == many.health

    def test_tolerant_absorbs_faults_identically(self):
        ex = landing_messages()
        rng = random.Random(99)
        stream = []
        for i, m in enumerate(ex.messages):
            if rng.random() < 0.15:
                continue                      # drop
            stream.append(m)
            if rng.random() < 0.15:
                stream.append(m)              # duplicate
        # one corrupt envelope in the middle
        env = Envelope.wrap(ex.messages[0], seq=0)
        bad = Envelope(message=env.message, seq=env.seq,
                       checksum=env.checksum ^ 0xFF)
        stream.insert(len(stream) // 2, bad)
        init = dict(ex.initial_store)
        one = Observer(ex.n_threads, init, spec=LANDING_PROPERTY,
                       fault_tolerant=True, causal_log=True)
        many = Observer(ex.n_threads, init, spec=LANDING_PROPERTY,
                        fault_tolerant=True, causal_log=True)
        for item in stream:
            one.receive(item)
        many.receive_batch(stream)
        one.finish()
        many.finish()
        assert one.health == many.health
        assert one.health.corrupted == 1
        assert [m.event.eid for m in one.causal_log] == \
               [m.event.eid for m in many.causal_log]
        assert len(one.violations) == len(many.violations)

    def test_stall_threshold_falls_back_to_singles(self):
        ex = landing_messages()
        msgs = list(ex.messages)
        missing = msgs.pop(0)
        one = Observer(ex.n_threads, dict(ex.initial_store),
                       fault_tolerant=True, stall_threshold=3,
                       causal_log=True)
        many = Observer(ex.n_threads, dict(ex.initial_store),
                        fault_tolerant=True, stall_threshold=3,
                        causal_log=True)
        for m in msgs:
            one.receive(m)
        many.receive_batch(msgs)
        # stall accounting is per message: chunking changes nothing
        assert one.health == many.health
        assert missing.event.eid not in CausalityIndex(ex.n_threads,
                                                       many.causal_log)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("threshold", [1, 3])
    def test_stall_declarations_independent_of_chunking(self, seed,
                                                        threshold):
        # stall accounting runs per message inside offer_batch, so a chunk
        # boundary can never move the moment a gap is declared lost
        ex = make_execution(seed, n_threads=3, ops=40)
        channel = FaultyChannel(FaultPlan(drop=0.02, dup=0.05, corrupt=0.02,
                                          delay=0.15, delay_max=4, seed=seed))
        for m in ex.messages:
            channel.put(m)
        channel.close()
        stream = list(channel.drain())
        outcomes = []
        for chunk in (1, 7, 64):
            obs = Observer(ex.n_threads, dict(ex.initial_store),
                           engines=["ltl:v0 <= 1", "atomicity"],
                           fault_tolerant=True, stall_threshold=threshold,
                           causal_log=True)
            found = []
            for i in range(0, len(stream), chunk):
                found.extend(obs.receive_batch(stream[i:i + chunk]))
            found.extend(obs.finish())
            outcomes.append((
                obs.health,
                [m.event.eid for m in obs.causal_log],
                obs._delivery.quarantined,
                sorted(obs._delivery._held),
                len(found),
                [v.to_json() for v in obs.engine_verdicts()],
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_strict_duplicate_raises_after_prefix(self):
        ex = make_execution(1)
        msgs = list(ex.messages[:4])
        assert len(msgs) == 4
        obs = Observer(ex.n_threads, dict(ex.initial_store))
        with pytest.raises(ValueError, match="duplicate"):
            obs.receive_batch(msgs + [msgs[0]])
        # everything before the duplicate was fully processed
        assert obs.health.delivered == 4
        assert obs.n_received == 5

    def test_strict_corrupt_envelope_raises_after_prefix(self):
        ex = make_execution(1)
        env = Envelope.wrap(ex.messages[2], seq=2)
        bad = Envelope(message=env.message, seq=env.seq,
                       checksum=env.checksum ^ 1)
        obs = Observer(ex.n_threads, dict(ex.initial_store))
        with pytest.raises(ValueError, match="checksum"):
            obs.receive_batch(list(ex.messages[:2]) + [bad])
        assert obs.health.delivered == 2

    def test_width_mismatch_rejects_whole_chunk(self):
        ex = make_execution(1)
        wide = make_execution(1, n_threads=4).messages[0]
        obs = Observer(ex.n_threads, dict(ex.initial_store), causal_log=True)
        with pytest.raises(ValueError, match="width"):
            obs.receive_batch([ex.messages[0], wide])
        assert obs.n_received == 0 and obs.health.delivered == 0
        obs.receive_batch([ex.messages[0]])
        assert obs.causal_log == [ex.messages[0]]

    def test_empty_batch_is_noop(self):
        ex = landing_messages()
        obs = Observer(ex.n_threads, dict(ex.initial_store))
        assert obs.receive_batch([]) == []
        assert obs.n_received == 0

    def test_finished_observer_rejects_batch(self):
        ex = landing_messages()
        obs = Observer(ex.n_threads, dict(ex.initial_store))
        obs.finish()
        with pytest.raises(RuntimeError):
            obs.receive_batch(list(ex.messages[:1]))


class TestCausalityIndexConstruction:
    def test_lazy_iterable_equals_list(self):
        ex = make_execution(3)
        a = CausalityIndex(ex.n_threads, iter(ex.messages))
        b = CausalityIndex(ex.n_threads, list(ex.messages))
        assert list(a.messages) == list(b.messages) == list(ex.messages)
        assert (a.relation_matrix() == b.relation_matrix()).all()

    def test_duplicate_rejected(self):
        ex = make_execution(4)
        batch = list(ex.messages[:3]) + [ex.messages[1]]
        with pytest.raises(ValueError, match="duplicate"):
            CausalityIndex(ex.n_threads, batch)

    def test_adjacent_duplicate_caught(self):
        ex = make_execution(6)
        with pytest.raises(ValueError, match="duplicate"):
            CausalityIndex(ex.n_threads, [ex.messages[0], ex.messages[0]])


class TestPredictorFeedBatch:
    """The LTL engine's batched feed vs its per-message feed."""

    def test_same_violations_as_singles(self):
        ex = landing_messages()
        from repro.engines import AnalysisBus, LtlEngine

        engines = [LtlEngine(ex.n_threads, ex.initial_store,
                             LANDING_PROPERTY) for _ in range(2)]
        one, many = (AnalysisBus(ex.n_threads, [e]) for e in engines)
        got_one = []
        for m in ex.messages:
            got_one.extend(one.feed(m))
        got_many = many.feed_batch(list(ex.messages))
        got_one += one.finish()
        got_many += many.finish()
        assert [v.cut for v in got_one] == [v.cut for v in got_many]
        assert engines[0].stats.levels_completed == \
            engines[1].stats.levels_completed

    def test_builder_feed_many_matches_feed(self):
        from repro.lattice.levels import LevelByLevelBuilder

        ex = landing_messages()
        a = LevelByLevelBuilder(ex.n_threads, ex.initial_store)
        for m in ex.messages:
            a.feed(m)
        b = LevelByLevelBuilder(ex.n_threads, ex.initial_store)
        b.feed_many(list(ex.messages))
        a.finish()
        b.finish()
        assert a.level == b.level
        assert set(a.frontier) == set(b.frontier)
        assert a.stats.messages_buffered == b.stats.messages_buffered

    def test_feed_many_rejects_closed_builder(self):
        from repro.lattice.levels import LevelByLevelBuilder

        ex = landing_messages()
        b = LevelByLevelBuilder(ex.n_threads, ex.initial_store)
        b.feed_many(list(ex.messages))
        b.finish()
        with pytest.raises(RuntimeError):
            b.feed_many(list(ex.messages[:1]))


class TestSessionBatchDrain:
    def test_worker_drains_in_batches(self):
        from repro.server.protocol import Hello
        from repro.server.session import Session

        ex = landing_messages()
        hello = Hello(mode="attach", program="landing",
                      n_threads=ex.n_threads,
                      initial=dict(ex.initial_store),
                      spec=LANDING_PROPERTY)
        sess = Session(1, hello)
        for m in ex.messages:
            assert sess.enqueue(m, timeout=1.0)
        sess.begin_drain()
        while sess.process_batch(max_batch=8):
            pass
        assert sess.state.value == "finished"
        assert sess.analyzed == len(ex.messages)
        assert sess.pending == 0
        # verdict identical to a plain observer over the same stream
        ref = Observer(ex.n_threads, dict(ex.initial_store),
                       spec=LANDING_PROPERTY)
        ref.receive_batch(ex.messages)
        ref.finish()
        assert len(sess.observer.violations) == len(ref.violations)
        assert sess.final_clocks[ex.messages[-1].thread] == \
               tuple(ex.messages[-1].clock)

    def test_fin_mid_chunk_finishes(self):
        from repro.server.protocol import Hello
        from repro.server.session import Session

        ex = landing_messages()
        hello = Hello(mode="attach", program="landing",
                      n_threads=ex.n_threads,
                      initial=dict(ex.initial_store))
        sess = Session(2, hello)
        for m in ex.messages:
            sess.enqueue(m, timeout=1.0)
        sess.begin_drain()
        # one giant batch: the fin sentinel is consumed in the same call
        assert sess.process_batch(max_batch=10_000) is False
        assert sess.state.value == "finished"
        assert sess.analyzed == len(ex.messages)
