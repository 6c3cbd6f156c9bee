"""Fault-injection tests: the observer pipeline under an imperfect wire.

Covers the robustness acceptance criteria:

* for seeded (workload, fault-plan) combinations with drop/dup/corrupt
  rates up to 10%, the observer terminates, never raises, and its health
  report matches the injected :class:`FaultLog` *exactly* (every fault
  reported, zero false positives);
* predictive verdicts on the non-quarantined region are identical to a
  fault-free run of the same trace;
* the causal log of delivered messages is a linear extension of ``⊳``
  restricted to the delivered subset, which is itself a consistent cut.
"""

import random

import pytest

from repro.core.causality import is_linear_extension
from repro.core.events import Envelope
from repro.observer import Observer
from repro.observer.delivery import CausalDelivery
from repro.observer.faults import (
    CORRUPTION_SENTINEL,
    FaultLog,
    FaultPlan,
    FaultyChannel,
)
from repro.sched import RandomScheduler, run_program
from repro.workloads import random_program


def make_execution(seed, n_threads=3, ops=10):
    program = random_program(random.Random(seed), n_threads=n_threads,
                             n_vars=3, ops_per_thread=ops, write_ratio=0.7)
    return run_program(program, RandomScheduler(seed))


def thread_totals(messages, n_threads):
    totals = [0] * n_threads
    for m in messages:
        totals[m.thread] += 1
    return totals


def pump(channel, observer, messages):
    """Producer/consumer loop: put one message, drain what's deliverable."""
    for m in messages:
        channel.put(m)
        observer.consume(channel)
    channel.close()
    observer.consume(channel)


class TestFaultPlan:
    def test_parse(self):
        plan = FaultPlan.parse("drop=0.05, dup=0.02, corrupt=0.01", seed=9)
        assert (plan.drop, plan.dup, plan.corrupt) == (0.05, 0.02, 0.01)
        assert plan.seed == 9

    def test_parse_crash_and_delay(self):
        plan = FaultPlan.parse("delay=0.2,delay_max=5,crash_after=10")
        assert plan.delay == 0.2
        assert plan.delay_max == 5
        assert plan.crash_after == 10

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("jitter=0.1")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("drop")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop=0.6, dup=0.6)


class TestFaultyChannel:
    def test_no_faults_passes_everything_as_envelopes(self):
        ex = make_execution(0)
        ch = FaultyChannel(FaultPlan())
        out = []
        pump_ch = ex.messages
        for m in pump_ch:
            ch.put(m)
        ch.close()
        out = list(ch.drain())
        assert len(out) == len(ex.messages)
        assert all(isinstance(e, Envelope) and e.ok for e in out)
        assert ch.log == FaultLog()

    def test_seed_determinism(self):
        ex = make_execution(1)
        plans = [FaultPlan(drop=0.1, dup=0.1, corrupt=0.1, delay=0.1, seed=5)
                 for _ in range(2)]
        logs = []
        for plan in plans:
            ch = FaultyChannel(plan)
            for m in ex.messages:
                ch.put(m)
            ch.close()
            list(ch.drain())
            logs.append(ch.log)
        assert logs[0] == logs[1]

    def test_log_accounts_for_every_envelope(self):
        ex = make_execution(2, ops=20)
        ch = FaultyChannel(FaultPlan(drop=0.15, dup=0.1, corrupt=0.1,
                                     delay=0.1, seed=3))
        for m in ex.messages:
            ch.put(m)
        ch.close()
        out = list(ch.drain())
        log = ch.log
        expected = (len(ex.messages) - len(log.dropped)
                    + len(log.duplicated) - len(log.lost_to_crash))
        assert len(out) == expected
        bad = [e for e in out if not e.ok]
        assert len(bad) == len(log.corrupted)
        assert all(e.message.event.value == CORRUPTION_SENTINEL for e in bad)

    def test_crash_swallows_suffix(self):
        ex = make_execution(3, ops=10)
        ch = FaultyChannel(FaultPlan(crash_after=5, seed=0))
        for m in ex.messages:
            ch.put(m)
        ch.close()
        out = list(ch.drain())
        assert ch.crashed
        assert len(out) == 5
        assert ch.log.crashed_at == 5
        assert len(ch.log.lost_to_crash) == len(ex.messages) - 5

    def test_crash_loses_pending_delayed_sends(self):
        ex = make_execution(4, ops=10)
        ch = FaultyChannel(FaultPlan(delay=1.0, delay_max=30, crash_after=5,
                                     seed=1))
        for m in ex.messages:
            ch.put(m)
        ch.close()
        out = list(ch.drain())
        # everything the log says was delayed did eventually arrive;
        # everything lost to the crash (incl. unflushed delays) did not
        assert len(out) == len(ch.log.delayed)
        assert len(ch.log.delayed) + len(ch.log.lost_to_crash) == len(ex.messages)

    def test_put_after_close_rejected(self):
        ex = make_execution(0)
        ch = FaultyChannel(FaultPlan())
        ch.close()
        with pytest.raises(RuntimeError):
            ch.put(ex.messages[0])


class TestDeliveryLossAndQuarantine:
    def test_declare_lost_quarantines_cone(self, xyz_execution):
        e1, e2, e4, e3 = xyz_execution.messages
        d = CausalDelivery(2)
        assert d.offer(e2) == []            # blocked on e1 (slot (0, 1))
        d.declare_lost([(0, 1)])
        assert d.quarantined == 1
        assert d._held == {e2.delivery_index}   # e2's slot stays held
        assert d.pending == 0
        assert d.losses == ((0, 1),)

    def test_concurrent_region_keeps_flowing(self, xyz_execution):
        # lose thread 0's first message: thread 1's e2 depends on it (e1 ⊳ e2
        # via the x-write), so only slots concurrent with the loss survive —
        # here, nothing; but a fresh independent thread-1 message delivers.
        e1, e2, e4, e3 = xyz_execution.messages
        d = CausalDelivery(2)
        d.declare_lost([(1, 1)])            # lose e2 (thread 1, index 1)
        assert d.offer(e1) == [e1]          # e1 is concurrent with that loss
        assert d.offer(e3) == [e3]          # e3 = thread 0 index 2, also fine
        assert d.offer(e4) == []            # e4 needs e2 -> quarantined
        assert d.quarantined == 1
        assert d._held == {e4.delivery_index}

    def test_late_arrival_of_lost_slot_is_quarantined(self, xyz_execution):
        e1 = xyz_execution.messages[0]
        d = CausalDelivery(2)
        d.declare_lost([(0, 1)])
        assert d.offer(e1) == []
        assert d.late_arrivals == 1
        assert d.duplicates_dropped == 0

    def test_cannot_lose_a_delivered_slot(self, xyz_execution):
        e1 = xyz_execution.messages[0]
        d = CausalDelivery(2)
        d.offer(e1)
        with pytest.raises(ValueError, match="already delivered"):
            d.declare_lost([(0, 1)])

    def test_gaps_reports_blocking_slots(self, xyz_execution):
        e1, e2, e4, e3 = xyz_execution.messages
        d = CausalDelivery(2)
        d.offer(e4)
        assert d.gaps() == [(0, 1)] or d.gaps() == [(1, 1)]
        assert not d.arrived((0, 1))
        assert d.arrived(e4.delivery_index)


class TestObserverFaultTolerance:
    def test_strict_mode_raises_on_corrupt_envelope(self, xyz_execution):
        import dataclasses

        obs = Observer(2, dict(xyz_execution.initial_store))
        env = Envelope.wrap(xyz_execution.messages[0], 0)
        bad_event = dataclasses.replace(env.message.event, value=123456)
        bad = Envelope(
            message=dataclasses.replace(env.message, event=bad_event),
            seq=0, checksum=env.checksum)
        with pytest.raises(ValueError, match="checksum"):
            obs.receive(bad)

    def test_tolerant_mode_counts_corruption(self, xyz_execution):
        import dataclasses

        obs = Observer(2, dict(xyz_execution.initial_store),
                       fault_tolerant=True)
        env = Envelope.wrap(xyz_execution.messages[0], 0)
        bad_event = dataclasses.replace(env.message.event, value=123456)
        bad = Envelope(
            message=dataclasses.replace(env.message, event=bad_event),
            seq=0, checksum=env.checksum)
        assert obs.receive(bad) == []
        assert obs.health.corrupted == 1

    def test_duplicates_absorbed_exactly(self, xyz_execution):
        obs = Observer(2, dict(xyz_execution.initial_store),
                       fault_tolerant=True)
        for m in xyz_execution.messages:
            obs.receive(m)
            obs.receive(m)              # every message arrives twice
        obs.finish(expected_totals=thread_totals(xyz_execution.messages, 2))
        h = obs.health
        assert h.duplicates_dropped == 4
        assert h.delivered == 4
        assert not h.degraded          # duplication alone does not degrade
        assert h.sound_everywhere

    def test_stall_threshold_declares_loss_online(self):
        ex = make_execution(7, n_threads=2, ops=8)
        totals = thread_totals(ex.messages, 2)
        # drop thread 0's first message; feed everything else
        victim = next(m for m in ex.messages if m.delivery_index == (0, 1))
        rest = [m for m in ex.messages if m is not victim]
        obs = Observer(2, dict(ex.initial_store), fault_tolerant=True,
                       stall_threshold=3)
        obs.receive_batch(rest)
        assert (0, 1) in obs.health.losses   # declared before finish
        obs.finish(expected_totals=totals)
        assert obs.health.pending == 0

    def test_health_without_delivery_layer(self, xyz_execution):
        obs = Observer(2, dict(xyz_execution.initial_store))
        obs.receive_batch(xyz_execution.messages)
        h = obs.health
        assert h.received == h.delivered == 4
        assert h.sound_everywhere


SOAK_SPEC = "v0 <= 4"
SOAK_SEEDS = range(20)


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_fault_injection_soak(seed):
    """Acceptance soak: 20+ seeded (workload, fault-plan) combinations with
    rates up to 10% — terminates, health matches the plan exactly, and
    verdicts on the analyzed prefix equal the fault-free run's."""
    rng = random.Random(1000 + seed)
    n_threads = rng.choice((2, 3, 4))
    ex = make_execution(seed, n_threads=n_threads, ops=rng.randint(6, 14))
    totals = thread_totals(ex.messages, n_threads)
    plan = FaultPlan(
        drop=rng.uniform(0, 0.10),
        dup=rng.uniform(0, 0.10),
        corrupt=rng.uniform(0, 0.10),
        delay=rng.uniform(0, 0.10),
        delay_max=rng.randint(1, 4),
        crash_after=(rng.randrange(len(ex.messages) or 1)
                     if rng.random() < 0.2 and ex.messages else None),
        seed=seed * 31 + 7,
    )
    channel = FaultyChannel(plan)
    obs = Observer(n_threads, dict(ex.initial_store), spec=SOAK_SPEC,
                   fault_tolerant=True, causal_log=True)
    pump(channel, obs, ex.messages)          # (a) never hangs or raises
    obs.finish(expected_totals=totals)
    h = obs.health
    log = channel.log

    # (b) every injected fault reported, zero false positives
    assert set(h.losses) == log.lost_slots
    assert h.duplicates_dropped == len(log.duplicated)
    assert h.corrupted == len(log.corrupted)
    assert h.pending == 0
    if log.lost_slots or log.corrupted:
        assert h.degraded
        assert h.degraded_windows
    else:
        assert not h.degraded
        assert h.sound_everywhere

    # (c) the causal log is a linear extension of ⊳ on the delivered subset,
    # and that subset is a consistent cut (per-thread contiguous prefixes)
    assert is_linear_extension(obs.causal_log)
    delivered = obs.health.delivered
    assert len(obs.causal_log) == delivered
    per_thread = {}
    for m in obs.causal_log:
        per_thread.setdefault(m.thread, []).append(m.clock[m.thread])
    for t, indices in per_thread.items():
        assert indices == list(range(1, len(indices) + 1)), t

    # verdict parity with the fault-free run, restricted to the analyzed cut
    clean = Observer(n_threads, dict(ex.initial_store), spec=SOAK_SPEC)
    clean.receive_batch(ex.messages)
    clean.finish()
    cut = [len(per_thread.get(t, ())) for t in range(n_threads)]
    clean_restricted = {
        (v.cut, v.monitor_state) for v in clean.violations
        if all(v.cut[i] <= cut[i] for i in range(n_threads))
    }
    faulty = {(v.cut, v.monitor_state) for v in obs.violations}
    assert faulty == clean_restricted
