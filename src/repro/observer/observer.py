"""The external observer (paper Fig. 4, monitoring module).

Receives messages ``⟨e, i, V⟩`` in whatever order the transport delivers
them, releases them in causal order via Theorem 3, and (optionally) runs
the predictive analyzer online.  The observer never assumes in-order
delivery: per-thread sequencing comes from the clocks themselves
(``clock[thread]`` is the event's 1-based relevant index).  Its own
per-session state is the delivery buffer's per-thread delivered counts
plus the messages still held back: nothing grows with the messages
already delivered unless ``causal_log=True`` asks for the released order.

Fault tolerance (``fault_tolerant=True``) extends that to an *imperfect*
wire.  The same per-thread sequencing that makes reordering harmless makes
loss, duplication and corruption **detectable**:

* a duplicate fills a delivery slot ``(thread, index)`` already delivered
  or held → suppressed and counted;
* a corrupted :class:`~repro.core.events.Envelope` fails its send-time
  checksum → counted, payload never trusted;
* a lost message leaves a precise ``(thread, index)`` gap that blocks the
  causal-delivery buffer → after a stall threshold (or at end of stream)
  the gap is declared lost and its *causal cone* quarantined, while
  monitoring continues on every region concurrent with the loss.

The resulting verdict semantics is explicit in :class:`ObserverHealth`:
verdicts on the delivered (non-quarantined) prefix are exactly those of a
fault-free run — the delivered subset is a consistent cut, so its
sub-lattice is a prefix of the full lattice — while quarantined windows
are reported unsound rather than silently guessed at.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from ..core.events import Envelope, Message, VarName
from ..engines.base import (
    AnalysisEngine,
    DegradedWindow,
    EngineVerdict,
    StreamVerdict,
    make_engine,
)
from ..engines.bus import AnalysisBus
from ..engines.ltl import LtlEngine
from ..lattice.levels import BuilderStats, Violation
from ..logic.monitor import Monitor
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .channel import Channel
from .delivery import CausalDelivery

__all__ = ["Observer", "ObserverHealth"]

_C_RECEIVED = _metrics.REGISTRY.counter(
    "observer.received", unit="messages",
    help="messages/envelopes ingested by the observer, faults included")
_C_CORRUPTED = _metrics.REGISTRY.counter(
    "observer.corrupted", unit="envelopes",
    help="envelopes rejected because the payload failed its checksum")
_C_REBUILT = _metrics.REGISTRY.counter(
    "observer.rebuilt_events", unit="messages",
    help="archived messages replayed through rebuild() to reconstruct "
         "observer state after a crash")


@dataclass(frozen=True)
class ObserverHealth:
    """Fidelity report: what the observer saw, dropped and gave up on.

    ``losses`` + ``quarantined`` + ``degraded_windows`` delimit exactly
    where verdicts are unsound; everything else carries the same guarantees
    as a fault-free run.
    """

    #: Messages/envelopes ingested, including duplicates and corrupt ones.
    received: int
    #: Messages released to the analysis in causal order.
    delivered: int
    #: Transport-level duplicates suppressed.
    duplicates_dropped: int
    #: Envelopes whose payload failed its send-time checksum.
    corrupted: int
    #: ``(thread, index)`` delivery slots declared lost.
    losses: tuple[tuple[int, int], ...]
    #: Messages discarded because a lost slot is in their causal past.
    quarantined: int
    #: Messages still buffered behind an undeclared gap.
    pending: int
    #: Messages that arrived after their slot had been declared lost.
    late_arrivals: int
    #: Per-thread suffixes excluded from analysis (see
    #: :class:`~repro.engines.base.DegradedWindow`).
    degraded_windows: tuple[DegradedWindow, ...] = ()

    @property
    def degraded(self) -> bool:
        """Did any fault force the observer to give up on part of the
        computation?  (Duplicates alone do not degrade: they are absorbed
        exactly.)"""
        return bool(self.losses or self.quarantined or self.corrupted
                    or self.degraded_windows)

    @property
    def sound_everywhere(self) -> bool:
        """Verdicts cover the full computation with no excluded region."""
        return not self.degraded and self.pending == 0

    def summary(self) -> str:
        lines = [
            f"received={self.received} delivered={self.delivered} "
            f"pending={self.pending}",
            f"duplicates_dropped={self.duplicates_dropped} "
            f"corrupted={self.corrupted} late_arrivals={self.late_arrivals}",
            f"losses={list(self.losses)} quarantined={self.quarantined}",
        ]
        if self.degraded_windows:
            lines.append("degraded windows:")
            lines.extend(f"  {w.pretty()}" for w in self.degraded_windows)
            lines.append("verdicts outside these windows are sound; inside "
                         "them neither violation nor absence can be claimed")
        elif self.sound_everywhere:
            lines.append("all verdicts sound (no loss, no corruption)")
        return "\n".join(lines)


class Observer:
    """An online observer over a message stream.

    Args:
        n_threads: MVC width of the monitored program.
        initial_store: the program's initial shared-variable valuation (the
            instrumentor communicates it at startup, like JMPaX does).
        spec: optional safety specification; when given (and ``engines`` is
            not), past-time LTL violations are predicted online and
            collected in :attr:`violations`.
        engines: explicit analysis selection — engine selection strings
            (``"ltl"``, ``"ltl:<formula>"``, ``"atomicity"``,
            ``"pattern:<steps>"``; see :mod:`repro.engines`) and/or
            already-built :class:`~repro.engines.base.AnalysisEngine`
            instances.  All engines ride one :class:`AnalysisBus`: clocks
            are computed once per delivered message and fanned out.  Every
            engine only ever sees causal-delivery releases (a linear
            extension of ⊳), whatever the arrival order.
        causal_log: keep every released message in :attr:`causal_log`
            (off by default, in either mode: the log grows with the stream).
        fault_tolerant: tolerate loss/duplication/corruption instead of
            raising; gaps are declared lost and analysis completes over
            the delivered prefix (see :attr:`health`).
        stall_threshold: in fault-tolerant mode, declare the currently
            blocking gaps lost after this many messages in a row that
            release nothing while messages are parked (duplicates and
            corrupt envelopes do not count; None = only declare losses at
            :meth:`finish`).  Kept by :class:`CausalDelivery`, per
            message, so chunking never moves a declaration.
        thread_safe: serialize ingestion, :meth:`finish` (and
            :attr:`health`) behind an internal lock, so the observer
            may be driven from more than one thread — the analysis server
            hands each session's observer between reader and worker
            threads.  Off by default: single-threaded pipelines should not
            pay for a lock per message.

    Use :meth:`receive_batch` (:meth:`receive` for one item) directly, or
    :meth:`consume` to pull from a :class:`~repro.observer.channel.Channel`.
    """

    def __init__(
        self,
        n_threads: int,
        initial_store: Mapping[VarName, Any],
        spec: Optional[str | Monitor] = None,
        causal_log: bool = False,
        fault_tolerant: bool = False,
        stall_threshold: Optional[int] = None,
        thread_safe: bool = False,
        engines: Optional[Sequence[Union[str, AnalysisEngine]]] = None,
    ):
        self._lock = threading.RLock() if thread_safe else nullcontext()
        self._n = n_threads
        built: list[AnalysisEngine] = []
        if engines is not None:
            for sel in engines:
                if isinstance(sel, AnalysisEngine):
                    built.append(sel)
                else:
                    built.append(make_engine(sel, n_threads, initial_store,
                                             default_spec=spec))
        elif spec is not None:
            # classic single-analysis observer
            built.append(LtlEngine(n_threads, initial_store, spec))
        self._received = 0
        self._corrupted = 0
        self._finished = False
        self._verdicts: Optional[list[EngineVerdict]] = None
        self._tolerant = fault_tolerant
        self._degraded_windows: tuple[DegradedWindow, ...] = ()
        # Causal delivery is the only way messages reach the engines: it
        # validates, de-duplicates and buffers arrivals and releases a
        # linear extension of ⊳.  The released order is also kept as a log
        # on request.  Stall accounting lives there too: only a
        # fault-tolerant observer gives up on gaps before finish().
        self._delivery = CausalDelivery(
            n_threads, stall_threshold if fault_tolerant else None)
        self._keep_log = causal_log
        self.causal_log: list[Message] = []
        self._bus = AnalysisBus(n_threads, built)

    # -- ingestion ------------------------------------------------------------

    def receive(self, item: Union[Message, Envelope]) -> list[Any]:
        """Ingest one message or envelope: :meth:`receive_batch` of one."""
        return self.receive_batch((item,))

    def receive_batch(
        self, items: Iterable[Union[Message, Envelope]]
    ) -> list[Any]:
        """Ingest messages/envelopes (any order); returns the findings
        newly discovered (violations, atomicity findings, pattern matches
        — concatenated in engine order).

        The loop here only counts items and unwraps envelopes (corrupt
        ones are counted and skipped); the chunk then takes one delivery
        pass (:meth:`CausalDelivery.offer_batch`, which checks clock
        widths, drops duplicates and keeps the stall count per message)
        and one bus fan-out (:meth:`AnalysisBus.feed_batch`).  ``items``
        may be a lazy iterable.

        A clock-width mismatch, in either mode, rejects the whole chunk:
        nothing in it is counted or reaches delivery or the engines.  In
        strict mode (the default) a chunk holding a corrupted envelope or
        a duplicate message raises — the perfect-channel contract of the
        original pipeline — after delivery and analysis took the chunk,
        so every item before the offending one has been fully processed.
        In fault-tolerant mode corruption and duplicates are counted and
        absorbed.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError("observer already finished")
            d = self._delivery
            msgs: list[Message] = []
            n = corrupted = 0
            for item in items:
                n += 1
                if isinstance(item, Envelope):
                    if not item.ok:
                        corrupted += 1
                        continue
                    item = item.message
                msgs.append(item)
            dup0 = d.duplicates_dropped
            released = d.offer_batch(msgs) if msgs else []
            self._received += n
            self._corrupted += corrupted
            if _metrics.ENABLED:
                _C_RECEIVED.inc(n)
                if corrupted:
                    _C_CORRUPTED.inc(corrupted)
            if self._keep_log:
                self.causal_log.extend(released)
            new = self._bus.feed_batch(released)
            if not self._tolerant:
                if corrupted:
                    raise ValueError(
                        f"{corrupted} envelope(s) failed their checksum "
                        "(corrupt payload)")
                if d.duplicates_dropped > dup0:
                    raise ValueError(
                        f"{d.duplicates_dropped - dup0} duplicate "
                        "message(s) in the chunk")
            return new

    def rebuild(self, messages: Iterable[Union[Message, Envelope]]) -> int:
        """Crash-recovery hook: replay an archived prefix to reconstruct
        state.

        The analysis depends only on the message sequence, so feeding the
        journaled prefix back through the normal ingestion path lands the
        observer — delivery buffer, predictor lattice and accumulated
        violations — in exactly the state it held when that
        prefix was live (the determinism the replay engine already relies
        on).  Returns the number of messages replayed.  Must be called
        before :meth:`finish`; the observer must not have ingested anything
        else yet for the rebuilt state to equal the pre-crash state.
        """
        with self._lock:
            if self._finished:
                raise RuntimeError("cannot rebuild a finished observer")
            before = self._received
            self.receive_batch(messages)
            n = self._received - before
        if _metrics.ENABLED:
            _C_REBUILT.inc(n)
        return n

    def consume(self, channel: Channel) -> list[Any]:
        """Drain whatever the channel currently delivers."""
        with _tracing.span("observer.consume"):
            return self.receive_batch(channel.drain())

    def finish(
        self, expected_totals: Optional[Sequence[int]] = None
    ) -> list[Any]:
        """End of stream: every engine completes its final checks.

        In strict mode (the default) every message still parked behind a
        gap makes this raise — the perfect-channel contract.  In
        fault-tolerant mode, remaining gaps are declared lost —
        precisely, when ``expected_totals`` (true per-thread message
        counts, e.g. from end-of-thread markers) is given, every expected
        slot that never arrived; otherwise every slot still blocking a
        buffered message.  Every engine then completes over the delivered
        prefix and the excluded regions are reported in :attr:`health`.
        """
        with self._lock:
            self._finished = True
            with _tracing.span("observer.finish"):
                if self._tolerant:
                    return self._finish_tolerant(expected_totals)
                if self._delivery.pending:
                    raise RuntimeError(
                        "stream closed with missing relevant messages; "
                        f"{self._delivery.pending} message(s) wait on a gap "
                        "in some thread's chain")
                return self._bus.finish()

    def _finish_tolerant(
        self, expected_totals: Optional[Sequence[int]]
    ) -> list[Any]:
        d = self._delivery
        if expected_totals is not None:
            if len(expected_totals) != self._n:
                raise ValueError(
                    f"expected_totals has {len(expected_totals)} entries "
                    f"for {self._n} threads"
                )
            lost = set(d.losses)
            missing = [
                (j, k)
                for j in range(self._n)
                for k in range(d.delivered_counts[j] + 1,
                               expected_totals[j] + 1)
                if not d.arrived((j, k)) and (j, k) not in lost
            ]
            d.declare_lost(missing)
        # Anything still parked waits on a chain of gaps that bottoms out at
        # a slot that never arrived; declare those until the buffer drains.
        while d.pending:
            unseen = [s for s in d.gaps() if not d.arrived(s)]
            if not unseen:  # pragma: no cover - impossible: ⊳ is well-founded
                raise RuntimeError("delivery stalled on arrived slots only")
            d.declare_lost(unseen)
        degraded = bool(d.losses) or self._corrupted > 0
        if not degraded:
            return self._bus.finish()
        new = self._bus.finish_partial(d.delivered_counts, expected_totals)
        self._degraded_windows = self._bus.degraded_windows
        return new

    # -- results ---------------------------------------------------------------

    @property
    def n_received(self) -> int:
        return self._received

    @property
    def bus(self) -> AnalysisBus:
        return self._bus

    @property
    def engines(self) -> tuple[AnalysisEngine, ...]:
        return self._bus.engines

    def engine_verdicts(self) -> list[EngineVerdict]:
        """One :class:`EngineVerdict` per engine, in registration order.

        After :meth:`finish` the verdicts are rendered once and memoised:
        :meth:`counterexamples` and :meth:`verdict` are views over them."""
        with self._lock:
            if self._verdicts is not None:
                return list(self._verdicts)
            verdicts = self._bus.verdicts()
            if self._finished:
                self._verdicts = verdicts
            return list(verdicts)

    def counterexamples(self) -> list[str]:
        """Pretty-printed findings of every engine, in engine order."""
        return [c for v in self.engine_verdicts() for c in v.counterexamples]

    def verdict(self) -> StreamVerdict:
        """Every engine's verdict document plus overall soundness — the
        value a finished session's consumers read."""
        with self._lock:
            return StreamVerdict(
                tuple(v.to_json() for v in self.engine_verdicts()),
                self._health().sound_everywhere)

    def finding_count(self) -> int:
        """Findings so far across every engine, without rendering them."""
        with self._lock:
            return sum(e.finding_count() for e in self._bus.engines)

    @property
    def _ltl(self) -> Optional[LtlEngine]:
        for e in self._bus.engines:
            if isinstance(e, LtlEngine):
                return e
        return None

    @property
    def violations(self) -> list[Violation]:
        """The LTL engine's violations (back-compat accessor; use
        :meth:`engine_verdicts` for the full multi-engine picture)."""
        ltl = self._ltl
        return ltl.violations if ltl is not None else []

    @property
    def stats(self) -> Optional[BuilderStats]:
        ltl = self._ltl
        return ltl.stats if ltl is not None else None

    @property
    def health(self) -> ObserverHealth:
        """Fidelity report (meaningful mainly in fault-tolerant mode)."""
        with self._lock:
            return self._health()

    def _health(self) -> ObserverHealth:
        d = self._delivery
        return ObserverHealth(
            received=self._received,
            delivered=sum(d.delivered_counts),
            duplicates_dropped=d.duplicates_dropped,
            corrupted=self._corrupted,
            losses=d.losses,
            quarantined=d.quarantined,
            pending=d.pending,
            late_arrivals=d.late_arrivals,
            degraded_windows=self._degraded_windows,
        )
