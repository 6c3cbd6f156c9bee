"""Tests for the event/message model."""

import pytest

from repro.core.events import Envelope, Event, EventKind, Message
from repro.core.vectorclock import VectorClock


class TestEventKind:
    def test_internal_is_not_access(self):
        assert not EventKind.INTERNAL.is_access
        assert not EventKind.INTERNAL.is_write

    def test_read_is_access_not_write(self):
        assert EventKind.READ.is_access
        assert EventKind.READ.is_read
        assert not EventKind.READ.is_write

    def test_write_kinds(self):
        for k in (EventKind.WRITE, EventKind.ACQUIRE, EventKind.RELEASE,
                  EventKind.NOTIFY, EventKind.WAKE):
            assert k.is_access, k
            assert k.is_write, k
            assert not k.is_read, k


class TestEvent:
    def test_eid_matches_paper_notation(self):
        e = Event(thread=1, seq=3, kind=EventKind.WRITE, var="x", value=7)
        assert e.eid == (1, 3)

    def test_seq_is_one_based(self):
        with pytest.raises(ValueError):
            Event(thread=0, seq=0, kind=EventKind.INTERNAL)

    def test_negative_thread_rejected(self):
        with pytest.raises(ValueError):
            Event(thread=-1, seq=1, kind=EventKind.INTERNAL)

    def test_access_requires_var(self):
        with pytest.raises(ValueError):
            Event(thread=0, seq=1, kind=EventKind.READ)

    def test_internal_rejects_var(self):
        with pytest.raises(ValueError):
            Event(thread=0, seq=1, kind=EventKind.INTERNAL, var="x")

    def test_pretty_uses_label(self):
        e = Event(thread=0, seq=2, kind=EventKind.WRITE, var="x", value=1,
                  relevant=True, label="x=1")
        assert "x=1" in e.pretty()
        assert "T1" in e.pretty()

    def test_pretty_without_label(self):
        e = Event(thread=1, seq=1, kind=EventKind.READ, var="y", value=3)
        s = e.pretty()
        assert "R" in s and "y" in s

    def test_frozen(self):
        e = Event(thread=0, seq=1, kind=EventKind.INTERNAL)
        with pytest.raises(AttributeError):
            e.thread = 2


class TestMessage:
    def _msg(self, thread, seq, clock, var="x", value=0):
        return Message(
            event=Event(thread=thread, seq=seq, kind=EventKind.WRITE,
                        var=var, value=value, relevant=True),
            thread=thread,
            clock=VectorClock(clock),
        )

    def test_thread_consistency_enforced(self):
        e = Event(thread=0, seq=1, kind=EventKind.WRITE, var="x", relevant=True)
        with pytest.raises(ValueError):
            Message(event=e, thread=1, clock=VectorClock((1, 0)))

    def test_theorem3_test_uses_sender_index(self):
        """The paper: e ⊳ e' iff V[i] <= V'[i] — the *second* index is the
        sender's i, not i' ("no typo")."""
        e1 = self._msg(0, 1, (1, 0))
        e4 = self._msg(1, 2, (1, 2))
        # e1 ⊳ e4 because V1[0]=1 <= V4[0]=1
        assert e1.causally_precedes(e4)
        assert not e4.causally_precedes(e1)

    def test_concurrent_messages(self):
        e2 = self._msg(1, 1, (1, 1), var="z")
        e3 = self._msg(0, 2, (2, 0), var="y")
        assert e2.concurrent_with(e3)
        assert e3.concurrent_with(e2)

    def test_self_never_precedes_itself(self):
        m = self._msg(0, 1, (1, 0))
        assert not m.causally_precedes(m)

    def test_same_thread_ordered_by_component(self):
        a = self._msg(0, 1, (1, 0))
        b = self._msg(0, 4, (2, 1))
        assert a.causally_precedes(b)
        assert not b.causally_precedes(a)

    def test_json_roundtrip(self):
        m = self._msg(1, 3, (2, 5), var="radio", value=0)
        back = Message.from_json(m.to_json())
        assert back.event.eid == m.event.eid
        assert back.clock == m.clock
        assert back.event.var == "radio"
        assert back.event.value == 0
        assert back.event.relevant

    def test_json_roundtrip_preserves_emit_index(self):
        e = Event(thread=0, seq=1, kind=EventKind.WRITE, var="x", value=1,
                  relevant=True, label="x=1")
        m = Message(event=e, thread=0, clock=VectorClock((1,)), emit_index=9)
        back = Message.from_json(m.to_json())
        assert back.emit_index == 9
        assert back.event.label == "x=1"

    def test_pretty_mentions_clock(self):
        m = self._msg(0, 1, (1, 0))
        assert "(1, 0)" in m.pretty()

    def test_emit_index_not_compared(self):
        e = Event(thread=0, seq=1, kind=EventKind.WRITE, var="x", relevant=True)
        a = Message(event=e, thread=0, clock=VectorClock((1,)), emit_index=1)
        b = Message(event=e, thread=0, clock=VectorClock((1,)), emit_index=2)
        assert a == b


class TestEnvelope:
    def _msg(self):
        e = Event(thread=0, seq=2, kind=EventKind.WRITE, var="x", value=7,
                  relevant=True)
        return Message(event=e, thread=0, clock=VectorClock((2, 1)))

    def test_wrap_checksum_verifies(self):
        env = Envelope.wrap(self._msg(), seq=4)
        assert env.ok
        assert env.seq == 4
        assert env.thread == 0

    def test_tampered_payload_detected(self):
        import dataclasses

        env = Envelope.wrap(self._msg(), seq=0)
        bad_event = dataclasses.replace(env.message.event, value=999)
        bad = Envelope(
            message=dataclasses.replace(env.message, event=bad_event),
            seq=env.seq, checksum=env.checksum)
        assert not bad.ok

    def test_delivery_index_uses_relevant_position(self):
        m = self._msg()
        assert m.delivery_index == (0, 2)
