"""Event and message model.

A *multithreaded execution* (paper Section 2.1) is a sequence of events
``e_1 e_2 ... e_r``, each belonging to one of ``n`` threads and having type
*internal*, *read* or *write* of a shared variable.  Synchronization events
(lock acquire/release, wait/notify) are modeled as *writes* of the lock's
shared variable (Section 3.1), but we keep distinct kinds so that analyses
(e.g. race detection) can tell them apart; for causality purposes
:attr:`EventKind.is_write` is what matters.

Algorithm A turns relevant events into messages ``⟨e, i, V⟩`` sent to the
observer (:class:`Message`).
"""

from __future__ import annotations

import enum
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

from .vectorclock import VectorClock

__all__ = ["EventKind", "Event", "Message", "Envelope", "VarName"]

# Shared-variable names. Anything hashable works internally; strings are used
# throughout examples and serialization.
VarName = Hashable


class EventKind(enum.Enum):
    """Type of an event in a multithreaded execution."""

    INTERNAL = "internal"
    READ = "read"
    WRITE = "write"
    # Synchronization events; treated as WRITEs of the lock variable by
    # Algorithm A (paper Section 3.1).
    ACQUIRE = "acquire"
    RELEASE = "release"
    # wait/notify: a write of a dummy shared variable by the notifying thread
    # before notification and by the notified thread after notification.
    NOTIFY = "notify"
    WAKE = "wake"

    @property
    def is_access(self) -> bool:
        """True for events that access a shared variable (read or write)."""
        return self is not EventKind.INTERNAL

    @property
    def is_write(self) -> bool:
        """True for events with *write* causality weight (Section 3.1)."""
        return self in _WRITE_KINDS

    @property
    def is_read(self) -> bool:
        return self is EventKind.READ


_WRITE_KINDS = frozenset(
    {
        EventKind.WRITE,
        EventKind.ACQUIRE,
        EventKind.RELEASE,
        EventKind.NOTIFY,
        EventKind.WAKE,
    }
)


@dataclass(frozen=True)
class Event:
    """One event ``e^k_i`` of a multithreaded execution.

    Attributes:
        thread: index ``i`` of the generating thread (0-based internally).
        seq: ``k`` — position of this event within its thread, *1-based* to
            match the paper's ``e^k_i`` notation (the first event of a thread
            has ``seq == 1``).
        kind: internal / read / write / synchronization.
        var: the shared variable accessed, or ``None`` for internal events.
        value: for writes, the value written; for reads, the value read.
            Carried so the observer can reconstruct global states
            (Section 4: "each relevant event contains global state update
            information").
        relevant: whether the event belongs to the relevant set ``R``.
        label: optional human-readable label (e.g. ``"landing = 1"``).
    """

    thread: int
    seq: int
    kind: EventKind
    var: Optional[VarName] = None
    value: Any = None
    relevant: bool = False
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.thread < 0:
            raise ValueError(f"negative thread index: {self.thread}")
        if self.seq < 1:
            raise ValueError(f"event seq is 1-based, got {self.seq}")
        if self.kind.is_access and self.var is None:
            raise ValueError(f"{self.kind} event requires a variable")
        if self.kind is EventKind.INTERNAL and self.var is not None:
            raise ValueError("internal events cannot name a variable")

    @property
    def eid(self) -> tuple[int, int]:
        """Unique id ``(thread, seq)`` — the paper's ``e^k_i``."""
        return (self.thread, self.seq)

    def pretty(self) -> str:
        if self.label is not None:
            body = self.label
        elif self.kind.is_access:
            op = "W" if self.kind.is_write else "R"
            body = f"{op}({self.var})"
            if self.value is not None:
                body += f"={self.value!r}"
        else:
            body = "internal"
        star = "*" if self.relevant else ""
        return f"e{self.seq}_T{self.thread + 1}{star}[{body}]"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.pretty()


@dataclass(frozen=True)
class Message:
    """A message ``⟨e, i, V⟩`` emitted by Algorithm A for a relevant event.

    ``V`` is the snapshot of the generating thread's MVC *after* processing
    the event.  By Theorem 3, for two messages ``⟨e, i, V⟩`` and
    ``⟨e', i', V'⟩``: ``e ⊳ e'`` iff ``V[i] <= V'[i]`` iff ``V < V'``.
    """

    event: Event
    thread: int
    clock: VectorClock
    # Monotone stamp of emission order; used only by tests/benchmarks to
    # reconstruct or scramble delivery order, never by the observer logic.
    emit_index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.thread != self.event.thread:
            raise ValueError(
                f"message thread {self.thread} != event thread {self.event.thread}"
            )

    def causally_precedes(self, other: "Message") -> bool:
        """Theorem 3 test: ``self ⊳ other`` via ``V[i] <= V'[i]``.

        Note the paper's emphasis: the index is the *sender's* ``i`` on both
        sides ("no typo: the second i is not an i'").
        """
        if self.event.eid == other.event.eid:
            return False
        return self.clock[self.thread] <= other.clock[self.thread]

    def concurrent_with(self, other: "Message") -> bool:
        return not self.causally_precedes(other) and not other.causally_precedes(self)

    # -- wire format (socket transport / cross-process observer) ------------

    def to_json(self) -> str:
        e = self.event
        return json.dumps(
            {
                "thread": self.thread,
                "seq": e.seq,
                "kind": e.kind.value,
                "var": e.var if isinstance(e.var, (str, int)) or e.var is None else str(e.var),
                "value": e.value,
                "relevant": e.relevant,
                "label": e.label,
                "clock": list(self.clock.components),
                "emit_index": self.emit_index,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "Message":
        d = json.loads(line)
        event = Event(
            thread=d["thread"],
            seq=d["seq"],
            kind=EventKind(d["kind"]),
            var=d["var"],
            value=d["value"],
            relevant=d["relevant"],
            label=d.get("label"),
        )
        return cls(
            event=event,
            thread=d["thread"],
            clock=VectorClock(d["clock"]),
            emit_index=d.get("emit_index", -1),
        )

    def pretty(self) -> str:
        return f"⟨{self.event.pretty()}, T{self.thread + 1}, {tuple(self.clock)}⟩"

    @property
    def delivery_index(self) -> tuple[int, int]:
        """``(thread, clock[thread])`` — the per-thread *relevant* position
        the observer's delivery layer sequences on (1-based).  Distinct from
        :attr:`Event.eid`, whose ``seq`` counts all events of the thread."""
        return (self.thread, self.clock[self.thread])


@dataclass(frozen=True)
class Envelope:
    """Envelope around a :class:`Message`: sender sequence + checksum.

    In-process only: :class:`~repro.observer.faults.FaultyChannel` wraps
    messages in it and the fault-tolerant observer checks it.  It has no
    serialised form; the served wire carries its own sequence numbers and
    CRCs (:mod:`repro.observer.reliable`).

    The paper's observer tolerates arbitrary *reordering* because per-thread
    sequencing is encoded in the MVCs themselves; tolerating *loss,
    duplication and corruption* needs two extra pieces of metadata that the
    payload cannot carry for itself:

    * ``seq`` — a monotone per-sender send index, so a reliable transport
      can ack/retransmit and the observer can spot transport-level
      duplicates even when the payload is unreadable;
    * ``checksum`` — CRC-32 of the canonical payload JSON, computed at
      send time, so the observer can detect payload corruption (a tampered
      message then counts as a *loss* of its ``(thread, index)`` slot
      rather than silently poisoning the lattice).

    An envelope whose :attr:`ok` is False must never be unwrapped into the
    analysis: its payload bytes are untrustworthy.
    """

    message: Message
    seq: int
    checksum: int

    @staticmethod
    def payload_checksum(message: Message) -> int:
        return zlib.crc32(message.to_json().encode("utf-8"))

    @classmethod
    def wrap(cls, message: Message, seq: int) -> "Envelope":
        return cls(message=message, seq=seq,
                   checksum=cls.payload_checksum(message))

    @property
    def ok(self) -> bool:
        """Does the payload still match the send-time checksum?"""
        return self.checksum == self.payload_checksum(self.message)

    @property
    def thread(self) -> int:
        """Routing key, so envelopes ride thread-sharded channels."""
        return self.message.thread
