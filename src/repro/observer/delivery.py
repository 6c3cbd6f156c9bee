"""Causal-order delivery: linearize an out-of-order message stream.

The lattice builder consumes messages in any order, but some consumers — a
log, a downstream flat-trace tool, a human — want a single stream that
respects the causal order ``⊳``.  :class:`CausalDelivery` is the classic
vector-clock delivery buffer adapted to MVCs: a message ``⟨e, i, V⟩`` is
deliverable once, for every thread ``j``, the first ``V[j]`` relevant
messages of ``j`` (``V[i] - 1`` for the sender itself) have been delivered.
Because each relevant event ticks its own component, ``V[j]`` *is* the
number of thread-``j`` messages in ``e``'s causal past (requirement (a)),
so the test is two integers per thread — no graph needed.

Output is always a linear extension of ``⊳`` (property-tested under
arbitrary arrival permutations); ties are broken by arrival order, so FIFO
input passes through unchanged.

Fault model (see ``observer.faults``): real channels also *lose*,
*duplicate* and *corrupt* messages.  The buffer therefore

* suppresses duplicates (counted in :attr:`duplicates_dropped`) instead
  of treating them as caller bugs — duplication is a normal transport
  fault.  A duplicate is keyed on the delivery slot ``(thread, index)``:
  a slot already delivered (``index <= delivered[thread]``) or already
  held (parked or quarantined) takes no second message;
* exposes the exact missing ``(thread, index)`` slots blocking progress
  (:meth:`gaps`, :meth:`missing_for`) — per-thread sequencing from the
  clocks makes gap detection precise, not heuristic;
* declares a gap lost after a stall (``stall_threshold`` offers in a row
  that release nothing) or at :meth:`declare_lost`, which *quarantines
  the causal cone* of the lost slot: every buffered or future message
  whose clock shows the lost message in its causal past can never be
  delivered soundly; it is dropped and counted in :attr:`quarantined`,
  and its slot stays held, so a second copy is still a duplicate.
  Messages concurrent with the loss keep flowing — graceful degradation
  instead of a permanent stall.

Held-back messages are indexed by the single ``(thread, index)`` slot they
are currently waiting on, so a release does O(woken) work rather than
rescanning the whole buffer (the buffer can hold thousands of messages
behind one gap under heavy loss).

State is bounded by what is still undecided: per-thread delivered counts,
the held-back messages and their slots, and the lost slots with the slots
of their quarantined cones.  Nothing is kept per delivered or quarantined
message.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ..core.events import Message
from ..obs import metrics as _metrics

__all__ = ["CausalDelivery"]

_C_OFFERED = _metrics.REGISTRY.counter(
    "delivery.offered", unit="messages",
    help="messages offered to the causal-delivery buffer")
_C_RELEASED = _metrics.REGISTRY.counter(
    "delivery.released", unit="messages",
    help="messages released in causal order")
_C_DUPLICATES = _metrics.REGISTRY.counter(
    "delivery.duplicates", unit="messages",
    help="duplicate offers suppressed (transport-level fault)")
_C_QUARANTINED = _metrics.REGISTRY.counter(
    "delivery.quarantined", unit="messages",
    help="messages diverted because a lost slot is in their causal past")
_C_LATE = _metrics.REGISTRY.counter(
    "delivery.late_arrivals", unit="messages",
    help="messages that arrived after their slot was declared lost")
_C_LOSSES = _metrics.REGISTRY.counter(
    "delivery.losses_declared", unit="slots",
    help="(thread, index) delivery slots declared lost")
_G_PENDING = _metrics.REGISTRY.gauge(
    "delivery.pending", unit="messages",
    help="buffer depth: messages parked behind a gap (max = high-water mark)")
_H_CASCADE = _metrics.REGISTRY.histogram(
    "delivery.release_cascade", unit="messages",
    help="messages released per releasing offer (cascade length)")
_H_BATCH = _metrics.REGISTRY.histogram(
    "delivery.batch_size", unit="messages",
    help="messages ingested per offer/offer_batch call (end-to-end "
         "batching; single offers land a 1)")


class CausalDelivery:
    """Buffer that releases messages in causal order.

    >>> d = CausalDelivery(n_threads=2)
    >>> out = []
    >>> for msg in scrambled:          # any arrival order
    ...     out.extend(d.offer(msg))
    >>> d.pending                      # in-flight gaps still held
    0
    """

    def __init__(self, n_threads: int,
                 stall_threshold: Optional[int] = None):
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if stall_threshold is not None and stall_threshold < 1:
            raise ValueError("stall_threshold must be >= 1 (or None)")
        self._n = n_threads
        #: Declare the blocking gaps lost after this many offers in a row
        #: that release nothing while messages are parked (None = never).
        self._stall_threshold = stall_threshold
        self._stalled_for = 0
        #: Number of messages already delivered per thread.
        self._delivered = [0] * n_threads
        #: Held-back messages, indexed by the one missing ``(thread, index)``
        #: slot each is currently blocked on.  Keys are always the *next*
        #: undelivered index of their thread, so there are at most
        #: ``n_threads`` live buckets; bucket order is arrival order.
        self._waiting: dict[tuple[int, int], list[Message]] = {}
        #: Undelivered slots ``(thread, clock[thread])`` whose message has
        #: arrived (parked or quarantined).  With the delivered counts it
        #: answers both "duplicate?" and :meth:`arrived`; a slot leaves it
        #: when its message is delivered.
        self._held: set[tuple[int, int]] = set()
        #: ``(thread, index)`` slots declared lost (never deliverable).
        self._lost: set[tuple[int, int]] = set()
        #: Messages causally after a lost slot — undeliverable, dropped and
        #: counted here (their slots stay in ``_held``).
        self.quarantined = 0
        #: Duplicate offers suppressed (transport-level fault, not an error).
        self.duplicates_dropped = 0
        #: Messages that arrived *after* their slot was declared lost.
        self.late_arrivals = 0

    @property
    def pending(self) -> int:
        """Messages buffered but not yet deliverable (excludes quarantine)."""
        return sum(len(b) for b in self._waiting.values())

    @property
    def delivered_counts(self) -> tuple[int, ...]:
        return tuple(self._delivered)

    @property
    def losses(self) -> tuple[tuple[int, int], ...]:
        """Slots declared lost, sorted."""
        return tuple(sorted(self._lost))

    # -- deliverability -------------------------------------------------------

    def _deliverable(self, msg: Message) -> bool:
        clock = msg.clock.components
        sender = msg.thread
        for j in range(self._n):
            need = clock[j] - 1 if j == sender else clock[j]
            if self._delivered[j] < need:
                return False
        # in-order within the sender's own stream
        return clock[sender] == self._delivered[sender] + 1

    def _first_blocker(self, msg: Message) -> Optional[tuple[int, int]]:
        """The next missing ``(thread, index)`` slot ``msg`` waits on, or
        ``None`` when deliverable now."""
        clock = msg.clock.components
        sender = msg.thread
        for j in range(self._n):
            need = clock[j] - 1 if j == sender else clock[j]
            if self._delivered[j] < need:
                return (j, self._delivered[j] + 1)
        if clock[sender] != self._delivered[sender] + 1:
            return (sender, self._delivered[sender] + 1)
        return None

    def _in_lost_cone(self, msg: Message) -> bool:
        """Is a lost slot in ``msg``'s causal past (or ``msg`` itself lost)?

        A lost ``(j, k)`` taints exactly the messages with ``clock[j] >= k``:
        by Theorem 3 causal ancestry is pointwise clock dominance, so the
        test covers the whole cone — including transitive dependents —
        without any graph walk.
        """
        for (j, k) in self._lost:
            if msg.clock[j] >= k:
                return True
        return False

    # -- ingestion ------------------------------------------------------------

    def offer(self, msg: Message) -> list[Message]:
        """Ingest one message: :meth:`offer_batch` of one."""
        return self.offer_batch((msg,))

    def offer_batch(self, msgs: Iterable[Message]) -> list[Message]:
        """Ingest messages in order; return everything that became
        deliverable, in causal order.

        Every clock width is checked before any message changes state, so
        a rejected batch leaves the buffer exactly as it was.  Duplicates
        (a second message for a delivered or held slot) are suppressed and
        counted, and messages in a lost slot's causal cone are
        quarantined.  With a ``stall_threshold``, that many offers in a
        row that each release nothing while messages are parked declare
        the blocking gaps lost.  Stalls are counted per message
        (duplicates excluded), so how a stream is chunked never changes
        when a gap is given up on.  Instrument updates are coalesced into
        one pass per call, and each call lands one ``delivery.batch_size``
        sample.
        """
        if not isinstance(msgs, (list, tuple)):
            msgs = list(msgs)
        width = self._n
        for msg in msgs:
            if msg.clock.width != width:
                raise ValueError(
                    f"clock width {msg.clock.width} != delivery width "
                    f"{width}"
                )
        released: list[Message] = []
        quar = 0
        dup0, late0 = self.duplicates_dropped, self.late_arrivals
        threshold = self._stall_threshold
        delivered, held = self._delivered, self._held
        for msg in msgs:
            slot = msg.delivery_index
            if slot[1] <= delivered[slot[0]] or slot in held:
                self.duplicates_dropped += 1
                continue
            stalled = True
            if self._lost and self._in_lost_cone(msg):
                held.add(slot)
                quar += 1
                if slot in self._lost:
                    self.late_arrivals += 1
            else:
                blocker = self._first_blocker(msg)
                if blocker is not None:
                    held.add(slot)
                    self._waiting.setdefault(blocker, []).append(msg)
                else:
                    before = len(released)
                    self._deliver(msg, released)
                    stalled = False
                    if _metrics.ENABLED:
                        _H_CASCADE.observe(len(released) - before)
            if threshold is None:
                continue
            if not stalled or not self._waiting:
                self._stalled_for = 0
            else:
                self._stalled_for += 1
                if self._stalled_for >= threshold:
                    self.declare_lost(self.gaps())
                    self._stalled_for = 0
        self.quarantined += quar
        if _metrics.ENABLED:
            _C_OFFERED.inc(len(msgs))
            _H_BATCH.observe(len(msgs))
            if self.duplicates_dropped > dup0:
                _C_DUPLICATES.inc(self.duplicates_dropped - dup0)
            if self.late_arrivals > late0:
                _C_LATE.inc(self.late_arrivals - late0)
            if quar:
                _C_QUARANTINED.inc(quar)
            if released:
                _C_RELEASED.inc(len(released))
            _G_PENDING.set(self.pending)
        return released

    def _deliver(self, msg: Message, released: list[Message]) -> None:
        """Deliver ``msg`` and cascade through waiters it unblocks.

        Iterative worklist: delivering slot ``(t, k)`` wakes exactly the
        bucket keyed ``(t, k)``; each woken message is re-examined once and
        either delivered (possibly waking further buckets) or re-parked on
        its next missing slot.  Total work is O(releases × n_threads)."""
        ready = deque([msg])
        while ready:
            m = ready.popleft()
            self._delivered[m.thread] += 1
            released.append(m)
            woken = self._waiting.pop((m.thread, self._delivered[m.thread]), [])
            for w in woken:
                blocker = self._first_blocker(w)
                if blocker is None:
                    self._held.discard(w.delivery_index)
                    ready.append(w)
                else:
                    self._waiting.setdefault(blocker, []).append(w)

    # -- gap detection and loss declaration -----------------------------------

    def gaps(self) -> list[tuple[int, int]]:
        """The missing ``(thread, index)`` slots currently blocking buffered
        messages, sorted.  Empty when nothing is held back."""
        return sorted(self._waiting)

    def arrived(self, slot: tuple[int, int]) -> bool:
        """Has the message for this delivery slot ever shown up (delivered,
        parked or quarantined)?"""
        j, k = slot
        return k <= self._delivered[j] or slot in self._held

    def declare_lost(self, slots: Iterable[tuple[int, int]]) -> None:
        """Declare ``(thread, index)`` slots lost and quarantine their causal
        cones: parked messages in a cone are dropped and counted in
        :attr:`quarantined`.

        A loss never *satisfies* a dependency, so no buffered message can
        become deliverable here; survivors concurrent with every lost slot
        simply stay parked on their existing gap.
        """
        newly = [s for s in slots if s not in self._lost]
        for (j, k) in newly:
            if k <= self._delivered[j]:
                raise ValueError(
                    f"slot ({j}, {k}) was already delivered; cannot be lost"
                )
            self._lost.add((j, k))
        if _metrics.ENABLED:
            _C_LOSSES.inc(len(newly))
        if not newly:
            return
        evicted = 0
        for key in list(self._waiting):
            bucket = self._waiting[key]
            keep = [m for m in bucket if not self._in_lost_cone(m)]
            evicted += len(bucket) - len(keep)
            if keep:
                self._waiting[key] = keep
            else:
                del self._waiting[key]
        self.quarantined += evicted
        if _metrics.ENABLED:
            _C_QUARANTINED.inc(evicted)
            _G_PENDING.set(self.pending)

    def missing_for(self, msg: Message) -> Optional[list[tuple[int, int]]]:
        """Diagnostic: which (thread, index) messages block ``msg``?
        ``None`` if it is deliverable now."""
        if self._deliverable(msg):
            return None
        out: list[tuple[int, int]] = []
        clock = msg.clock.components
        for j in range(self._n):
            need = clock[j] - 1 if j == msg.thread else clock[j]
            for k in range(self._delivered[j] + 1, need + 1):
                out.append((j, k))
        return out
