"""The analysis bus: one delivered stream, one clock computation, N engines.

Sits between :class:`~repro.observer.delivery.CausalDelivery` and the
registered :class:`~repro.engines.base.AnalysisEngine` instances.  For
every message it

1. materializes the message's MVC once (:attr:`BusEvent.clock` — the
   Theorem 3 clock every engine shares instead of re-walking the backend),
2. maintains the **synchronization-only happens-before** vector clocks
   online (:attr:`BusEvent.hb`) — program order plus edges through
   lock/monitor accesses, the relation predictive atomicity and pattern
   analyses need (conflicting *data* accesses stay concurrent under it,
   exactly ``Computation(events, causality="sync")`` computed
   incrementally), and
3. fans the annotated event out to every engine, collecting their new
   findings.

The sync-HB recurrence mirrors the offline definition: every sync access
of a variable is causally after every earlier sync access of it, so the
bus keeps one cumulative clock per sync variable (join of all its accesses
so far) and joins it into the accessing thread's clock.  Cost: O(n) per
sync access, O(1) amortized otherwise — computed once however many engines
are listening.

Ordering contract: the input must be a linear extension of ⊳ — the
releases of causal delivery, which is how the observer always feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core.events import EventKind, Message, VarName
from ..obs import metrics as _metrics
from .base import AnalysisEngine, EngineVerdict, compute_degraded_windows

__all__ = ["BusEvent", "AnalysisBus", "hb_precedes", "hb_concurrent"]

#: Synchronization kinds that carry happens-before edges (lock acquire/
#: release, monitor notify/wake) — the same set ``Computation`` treats as
#: ordering accesses under ``causality="sync"``.
_SYNC_KINDS = frozenset((EventKind.ACQUIRE, EventKind.RELEASE,
                         EventKind.NOTIFY, EventKind.WAKE))


@dataclass(frozen=True)
class BusEvent:
    """One causally-annotated message, computed once and shared."""

    msg: Message
    #: 0-based position in the bus's input order.
    index: int
    #: The message's MVC, materialized as a plain tuple (Theorem 3 clock).
    clock: tuple[int, ...]
    #: Synchronization-only happens-before clock of this event.  ``hb[t]``
    #: counts thread ``t``'s messages in this event's sync-HB past (its own
    #: thread's component is its 1-based position in that thread's
    #: delivered stream).
    hb: tuple[int, ...]

    @property
    def thread(self) -> int:
        return self.msg.thread

    @property
    def event(self):
        return self.msg.event


def hb_precedes(a: BusEvent, b: BusEvent) -> bool:
    """``a`` happens-before ``b`` under the sync-only order (Theorem 3
    shape: compare ``a``'s own component)."""
    return a.hb[a.thread] <= b.hb[a.thread]


def hb_concurrent(a: BusEvent, b: BusEvent) -> bool:
    return not hb_precedes(a, b) and not hb_precedes(b, a)


class AnalysisBus:
    """Fan one annotated stream out to every registered engine.

    Args:
        n_threads: MVC width of the monitored program.
        engines: the consumers, in verdict order.
    """

    def __init__(self, n_threads: int, engines: Sequence[AnalysisEngine]):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self._n = n_threads
        self.engines: tuple[AnalysisEngine, ...] = tuple(engines)
        self._index = 0
        # sync-only HB state: one clock per thread, one cumulative clock
        # per sync variable (join of all its sync accesses so far)
        self._tclk: list[list[int]] = [[0] * n_threads
                                       for _ in range(n_threads)]
        self._sync: dict[VarName, list[int]] = {}
        self._finished = False
        self._degraded = ()
        self._meters = None
        self._finding_meters = None
        if _metrics.ENABLED:
            self._meters = [
                _metrics.REGISTRY.counter(
                    "engine.events", unit="messages",
                    help="annotated messages fed to one engine (labelled)",
                    labels={"engine": e.name})
                for e in self.engines]
            self._finding_meters = [
                _metrics.REGISTRY.counter(
                    "engine.findings", unit="findings",
                    help="violations/matches reported by one engine "
                         "(labelled)",
                    labels={"engine": e.name})
                for e in self.engines]

    # -- annotation -----------------------------------------------------------

    def annotate(self, msg: Message) -> BusEvent:
        """Compute this message's shared annotations (once)."""
        t = msg.thread
        c = self._tclk[t]
        c[t] += 1
        e = msg.event
        if e.kind in _SYNC_KINDS:
            sc = self._sync.get(e.var)
            if sc is not None:
                for i in range(self._n):
                    if sc[i] > c[i]:
                        c[i] = sc[i]
            self._sync[e.var] = list(c)
        ev = BusEvent(msg=msg, index=self._index, clock=tuple(msg.clock),
                      hb=tuple(c))
        self._index += 1
        return ev

    # -- streaming ------------------------------------------------------------

    def feed(self, msg: Message) -> list[Any]:
        """Annotate one message and fan it out: :meth:`feed_batch` of one."""
        return self.feed_batch((msg,))

    def feed_batch(self, msgs: Sequence[Message]) -> list[Any]:
        """Annotate messages once each, then one ``feed_batch`` per engine;
        returns every engine's new findings, concatenated in engine order.
        With no engines nothing reads the annotation, so none is
        computed."""
        if not msgs or not self.engines:
            return []
        evs = [self.annotate(m) for m in msgs]
        new: list[Any] = []
        for i, engine in enumerate(self.engines):
            found = engine.feed_batch(evs)
            if self._meters is not None:
                self._meters[i].inc(len(evs))
                if found:
                    self._finding_meters[i].inc(len(found))
            new.extend(found)
        return new

    def finish(self) -> list[Any]:
        self._finished = True
        new: list[Any] = []
        for i, engine in enumerate(self.engines):
            found = engine.finish()
            if self._finding_meters is not None and found:
                self._finding_meters[i].inc(len(found))
            new.extend(found)
        return new

    def finish_partial(
        self,
        delivered_counts: Sequence[int],
        expected_counts: Optional[Sequence[int]] = None,
    ) -> list[Any]:
        """Degraded end of stream: every engine completes over the
        delivered prefix and records the same excluded windows."""
        self._finished = True
        self._degraded = compute_degraded_windows(
            delivered_counts, expected_counts)
        new: list[Any] = []
        for i, engine in enumerate(self.engines):
            found = engine.finish_partial(delivered_counts, expected_counts)
            if self._finding_meters is not None and found:
                self._finding_meters[i].inc(len(found))
            new.extend(found)
        return new

    # -- results --------------------------------------------------------------

    @property
    def degraded_windows(self):
        return self._degraded

    @property
    def events_fed(self) -> int:
        return self._index

    def verdicts(self) -> list[EngineVerdict]:
        return [e.verdict() for e in self.engines]

    def snapshot(self) -> dict:
        return {
            "events": self._index,
            "finished": self._finished,
            "engines": [e.snapshot() for e in self.engines],
        }
