"""Causal-order delivery buffer tests."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causality import is_linear_extension
from repro.core.events import Event, EventKind, Message
from repro.core.vectorclock import VectorClock
from repro.observer.delivery import CausalDelivery
from repro.sched import RandomScheduler, run_program
from repro.workloads import random_program


def msg(thread, seq, clock):
    return Message(
        event=Event(thread=thread, seq=seq, kind=EventKind.WRITE, var="x",
                    value=0, relevant=True),
        thread=thread,
        clock=VectorClock(clock),
    )


def deliver_scrambled(messages, n_threads, seed):
    msgs = list(messages)
    random.Random(seed).shuffle(msgs)
    d = CausalDelivery(n_threads)
    out = []
    for m in msgs:
        out.extend(d.offer(m))
    return d, out


class TestBasics:
    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CausalDelivery(0)

    def test_width_mismatch_rejected(self, xyz_execution):
        d = CausalDelivery(3)
        with pytest.raises(ValueError, match="width"):
            d.offer(xyz_execution.messages[0])

    def test_rejected_batch_changes_nothing(self, xyz_execution):
        """A width mismatch anywhere in a batch rejects all of it before
        any message changes state: no release is lost to the caller."""
        m_ok = xyz_execution.messages[0]
        m_width3 = msg(1, 1, (0, 1, 0))
        d = CausalDelivery(2)
        with pytest.raises(ValueError, match="width"):
            d.offer_batch([m_ok, m_width3])
        assert d.delivered_counts == (0, 0)
        assert d.pending == 0 and d.duplicates_dropped == 0
        assert not d.arrived(m_ok.delivery_index)
        assert d.offer_batch([m_ok]) == [m_ok]

    def test_duplicate_suppressed_and_counted(self, xyz_execution):
        """Duplication is a normal fault-model event, not a caller bug: the
        second copy is dropped and counted, never re-delivered."""
        d = CausalDelivery(2)
        assert d.offer(xyz_execution.messages[0]) != []
        assert d.offer(xyz_execution.messages[0]) == []
        assert d.duplicates_dropped == 1
        # a duplicate of a still-buffered message is suppressed too
        e1, e2, e4, e3 = xyz_execution.messages
        d2 = CausalDelivery(2)
        d2.offer(e4)
        assert d2.offer(e4) == []
        assert d2.duplicates_dropped == 1
        assert d2.pending == 1

    def test_fifo_input_passes_through(self, xyz_execution):
        d = CausalDelivery(2)
        out = d.offer_batch(xyz_execution.messages)
        assert [m.event.eid for m in out] == [
            m.event.eid for m in xyz_execution.messages]
        assert d.pending == 0

    def test_held_until_gap_fills(self, xyz_execution):
        e1, e2, e4, e3 = xyz_execution.messages
        d = CausalDelivery(2)
        assert d.offer(e4) == []        # needs e1 and e2
        assert d.offer(e2) == []        # needs e1
        assert d.pending == 2
        released = d.offer(e1)
        assert [m.event.eid for m in released] == [
            e1.event.eid, e2.event.eid, e4.event.eid]
        assert d.offer(e3) == [e3]
        assert d.pending == 0

    def test_missing_for_diagnostic(self, xyz_execution):
        e1, e2, e4, e3 = xyz_execution.messages
        d = CausalDelivery(2)
        missing = d.missing_for(e4)
        assert set(missing) == {(0, 1), (1, 1)}  # e1 and e2
        d.offer(e1)
        assert d.missing_for(e2) is None

    def test_delivered_counts(self, xyz_execution):
        d = CausalDelivery(2)
        d.offer_batch(xyz_execution.messages)
        assert d.delivered_counts == (2, 2)


class TestProperties:
    @given(st.integers(0, 500), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_output_is_linear_extension(self, seed, shuffle_seed):
        program = random_program(random.Random(seed), n_threads=3,
                                 n_vars=3, ops_per_thread=5,
                                 write_ratio=0.7)
        ex = run_program(program, RandomScheduler(seed))
        d, out = deliver_scrambled(ex.messages, 3, shuffle_seed)
        assert d.pending == 0
        assert len(out) == len(ex.messages)
        assert is_linear_extension(out)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_per_thread_order_preserved(self, seed):
        program = random_program(random.Random(seed), n_threads=2,
                                 n_vars=2, ops_per_thread=6,
                                 write_ratio=0.8)
        ex = run_program(program, RandomScheduler(seed))
        _d, out = deliver_scrambled(ex.messages, 2, seed + 1)
        for t in (0, 1):
            seqs = [m.event.seq for m in out if m.thread == t]
            assert seqs == sorted(seqs)


class TestSlotKeyedState:
    """Duplicates are keyed on the delivery slot ``(thread, index)``, and
    nothing is kept per delivered message."""

    def test_other_event_in_delivered_slot_is_duplicate(self, xyz_execution):
        e1 = xyz_execution.messages[0]
        impostor = dataclasses.replace(
            e1, event=dataclasses.replace(e1.event, seq=99))
        assert impostor.event.eid != e1.event.eid
        assert impostor.delivery_index == e1.delivery_index
        d = CausalDelivery(2)
        assert d.offer(e1) == [e1]
        assert d.offer(impostor) == []
        assert d.duplicates_dropped == 1
        assert d.pending == 0           # dropped, not parked forever
        assert d.gaps() == []

    def test_other_event_in_held_slot_is_duplicate(self):
        a2 = msg(0, 2, (2, 0))
        d = CausalDelivery(2)
        assert d.offer(a2) == []        # parked on (0, 1)
        assert d.offer(msg(0, 7, (2, 0))) == []
        assert d.duplicates_dropped == 1
        assert d.pending == 1

    def test_arrived_by_slot_state(self):
        d = CausalDelivery(2)
        assert d.offer(msg(0, 1, (1, 0))) != []      # (0, 1) delivered
        assert d.offer(msg(0, 3, (3, 0))) == []      # (0, 3) parked
        d.declare_lost([(1, 1)])
        assert d.offer(msg(1, 2, (0, 2))) == []      # (1, 2) quarantined
        assert d.pending == 1 and d.quarantined == 1
        assert d.arrived((0, 1))
        assert d.arrived((0, 3))
        assert d.arrived((1, 2))
        assert not d.arrived((0, 2))                 # never seen
        assert not d.arrived((1, 1))                 # lost, never seen
        # filling the gap delivers the parked slot; it stays arrived
        assert [m.delivery_index for m in d.offer(msg(0, 2, (2, 0)))] == \
            [(0, 2), (0, 3)]
        assert d.arrived((0, 3)) and d.pending == 0
        assert d._held == {(1, 2)}      # delivered slots are not kept
        assert d.offer(msg(0, 9, (3, 0))) == []      # delivered slot: dup
        assert d.offer(msg(1, 5, (0, 2))) == []      # quarantined slot: dup
        assert d.duplicates_dropped == 2
        assert d.quarantined == 1
