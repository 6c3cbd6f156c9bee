"""Online serializability checking with vector clocks (linear time).

Promotes the offline AVIO access-pattern table of
:mod:`repro.analysis.atomicity` into a streaming engine in the style of
Mathur & Viswanathan's linear-time atomicity checking (arXiv 2001.04961):
lock-protected regions are tracked as they open and close, conflict edges
are evaluated with the bus's synchronization-only happens-before clocks,
and every *unserializable triple* — two consecutive local accesses of a
variable inside a region with a conflicting remote access concurrent with
both — is reported::

    R - W - R    non-repeatable read
    W - W - R    local write lost
    R - W - W    remote write silently overwritten
    W - R - W    remote read observes an intermediate value

The engine is equivalent to :func:`~repro.analysis.atomicity.\
find_atomicity_violations` on complete streams (``all_accesses``
instrumentation; the parity tests enforce it) but runs online:

* each data access is recorded once and retired once a pruning pass shows
  it is in every thread's sync-HB past (it can never again be concurrent
  with a future event), so the live window tracks the program's actual
  concurrency, not the stream length;
* pattern + concurrency checks touch only (pair, remote) combinations
  whose variable matches, via per-variable indexes.

Findings are *predictive* — based on concurrency in the causal order, not
on the interleaving having happened — and only emitted for regions that
close (an unreleased lock is not an atomic block, matching the offline
oracle).  Relies on the bus's causally-ordered input: the sync-HB
annotation is only defined along a linear extension of ⊳.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..core.events import Event, EventKind, VarName
from .base import AnalysisEngine, register_engine
from .bus import BusEvent

__all__ = ["AtomicityEngine", "AtomicityFinding"]

#: The four unserializable (local, remote, local) kind-triples.
_UNSERIALIZABLE = {
    ("R", "W", "R"),
    ("W", "W", "R"),
    ("R", "W", "W"),
    ("W", "R", "W"),
}

#: How often (in data accesses) to run the retirement pass.
_PRUNE_EVERY = 512


def _kind(e: Event) -> str:
    return "W" if e.kind.is_write else "R"


@dataclass(frozen=True)
class AtomicityFinding:
    """One unserializable triple, with the witnesses."""

    var: VarName
    thread: int
    lock: VarName
    first: Event
    remote: Event
    second: Event
    pattern: tuple[str, str, str]

    @property
    def key(self) -> tuple:
        return (self.var, self.first.eid, self.remote.eid, self.second.eid)

    def pretty(self) -> str:
        p = "-".join(self.pattern)
        return (
            f"atomicity violation on {self.var!r} in T{self.thread + 1}'s "
            f"{self.lock!r} region: {p} "
            f"({self.first.pretty()} .. {self.remote.pretty()} .. "
            f"{self.second.pretty()})"
        )


class _Access:
    """One recorded data access: the event plus its sync-HB clock."""

    __slots__ = ("event", "thread", "hb", "write")

    def __init__(self, ev: BusEvent):
        self.event = ev.event
        self.thread = ev.thread
        self.hb = ev.hb
        self.write = ev.event.kind.is_write


def _concurrent(a: _Access, b: _Access) -> bool:
    # Theorem 3 shape over the sync-only clocks: x ⊑ y iff x's own
    # component is covered by y.
    return (a.hb[a.thread] > b.hb[a.thread]
            and b.hb[b.thread] > a.hb[b.thread])


class _Pair:
    """Two consecutive local accesses of one variable inside one region."""

    __slots__ = ("var", "thread", "lock", "first", "second")

    def __init__(self, var: VarName, thread: int, lock: VarName,
                 first: _Access, second: _Access):
        self.var = var
        self.thread = thread
        self.lock = lock
        self.first = first
        self.second = second


class _Region:
    """An open acquire..release span of one thread."""

    __slots__ = ("thread", "lock", "last", "pairs", "pending")

    def __init__(self, thread: int, lock: VarName):
        self.thread = thread
        self.lock = lock
        #: var -> last local data access inside this region
        self.last: dict[VarName, _Access] = {}
        #: pairs completed while open (only published at close)
        self.pairs: list[_Pair] = []
        #: findings discovered while open (only emitted at close)
        self.pending: list[AtomicityFinding] = []


class AtomicityEngine(AnalysisEngine):
    """Streaming unserializable-access-pattern detection."""

    name = "atomicity"
    version = "1"

    def __init__(self, n_threads: int):
        super().__init__()
        self._n = n_threads
        #: (thread, lock) -> open region (re-acquire replaces, like the
        #: offline maximal-span scan)
        self._open: dict[tuple[int, VarName], _Region] = {}
        #: var -> all live (non-retired) data accesses, any thread
        self._accesses: dict[VarName, list[_Access]] = {}
        #: var -> published pairs from *closed* regions (future remotes
        #: check against these and report immediately)
        self._closed_pairs: dict[VarName, list[_Pair]] = {}
        self._findings: list[AtomicityFinding] = []
        self._seen: set[tuple] = set()
        #: per-thread sync-HB frontier (last event's clock), for retirement
        self._frontier: list[Optional[tuple[int, ...]]] = [None] * n_threads
        self._since_prune = 0
        self._retired = 0
        self._data_events = 0

    # -- streaming ------------------------------------------------------------

    def feed(self, ev: BusEvent) -> list[AtomicityFinding]:
        if ev.hb is None:
            raise ValueError(
                "atomicity engine needs sync-HB annotations (AnalysisBus)")
        self._frontier[ev.thread] = ev.hb
        kind = ev.event.kind
        if kind is EventKind.ACQUIRE:
            self._open[(ev.thread, ev.event.var)] = _Region(
                ev.thread, ev.event.var)
            return []
        if kind is EventKind.RELEASE:
            return self._close_region(ev.thread, ev.event.var)
        if kind is EventKind.READ or kind is EventKind.WRITE:
            return self._data_access(ev)
        return []

    def _data_access(self, ev: BusEvent) -> list[AtomicityFinding]:
        acc = _Access(ev)
        var = ev.event.var
        new: list[AtomicityFinding] = []

        # 1. as a local access: extend pairs in this thread's open regions
        for (thread, _lock), region in self._open.items():
            if thread != ev.thread:
                continue
            prev = region.last.get(var)
            region.last[var] = acc
            if prev is not None:
                pair = _Pair(var, thread, region.lock, prev, acc)
                region.pairs.append(pair)
                # check the new pair against already-seen remote accesses;
                # emission deferred until the region closes
                for r in self._accesses.get(var, ()):
                    if r.thread != thread:
                        self._check(pair, r, region.pending)

        # 2. as a remote access: check against published (closed-region)
        # pairs of other threads — these emit immediately — and against
        # pairs still open in other threads' regions (deferred)
        candidates: list[AtomicityFinding] = []
        for pair in self._closed_pairs.get(var, ()):
            if pair.thread != ev.thread:
                self._check(pair, acc, candidates)
        self._emit(candidates, new)
        for (thread, _lock), region in self._open.items():
            if thread == ev.thread:
                continue
            for pair in region.pairs:
                if pair.var == var:
                    self._check(pair, acc, region.pending)

        self._accesses.setdefault(var, []).append(acc)
        self._data_events += 1
        self._since_prune += 1
        if self._since_prune >= _PRUNE_EVERY:
            self._prune()
        self._findings.extend(new)
        return new

    def _check(self, pair: _Pair, remote: _Access,
               sink: list[AtomicityFinding]) -> None:
        pattern = ("W" if pair.first.write else "R",
                   "W" if remote.write else "R",
                   "W" if pair.second.write else "R")
        if pattern not in _UNSERIALIZABLE:
            return
        if not (_concurrent(pair.first, remote)
                and _concurrent(pair.second, remote)):
            return
        sink.append(AtomicityFinding(
            var=pair.var, thread=pair.thread, lock=pair.lock,
            first=pair.first.event, remote=remote.event,
            second=pair.second.event, pattern=pattern))

    def _emit(self, candidates: list[AtomicityFinding],
              sink: list[AtomicityFinding]) -> None:
        """Deduplicate at emission time: nested/overlapping regions can
        carry the same (first, remote, second) triple, and only one report
        per triple survives — whichever region publishes first."""
        for f in candidates:
            if f.key not in self._seen:
                self._seen.add(f.key)
                sink.append(f)

    def _close_region(self, thread: int,
                      lock: VarName) -> list[AtomicityFinding]:
        region = self._open.pop((thread, lock), None)
        if region is None:
            return []
        for pair in region.pairs:
            self._closed_pairs.setdefault(pair.var, []).append(pair)
        new: list[AtomicityFinding] = []
        self._emit(region.pending, new)
        self._findings.extend(new)
        return new

    # -- retirement -----------------------------------------------------------

    def _covered(self, acc: _Access) -> bool:
        """Is ``acc`` in every thread's sync-HB past?  Then no future event
        can be concurrent with it (delivery order extends ⊳ ⊇ sync-HB)."""
        own = acc.hb[acc.thread]
        for f in self._frontier:
            if f is None or f[acc.thread] < own:
                return False
        return True

    def _prune(self) -> None:
        """Retire accesses (and closed pairs) that can never again be
        concurrent with a future event — the bound that keeps the live
        window proportional to actual concurrency."""
        self._since_prune = 0
        for var, accs in list(self._accesses.items()):
            live = [a for a in accs if not self._covered(a)]
            self._retired += len(accs) - len(live)
            if live:
                self._accesses[var] = live
            else:
                del self._accesses[var]
        for var, pairs in list(self._closed_pairs.items()):
            live_pairs = [p for p in pairs if not self._covered(p.second)
                          or not self._covered(p.first)]
            if live_pairs:
                self._closed_pairs[var] = live_pairs
            else:
                del self._closed_pairs[var]

    # -- results --------------------------------------------------------------

    def finish(self) -> list[AtomicityFinding]:
        # regions never released are not atomic blocks (offline parity);
        # their deferred findings are dropped with them
        self._finished = True
        self._open.clear()
        return []

    @property
    def findings(self) -> list[AtomicityFinding]:
        return list(self._findings)

    def counterexamples(self) -> list[str]:
        return [f.pretty() for f in self._findings]

    def finding_count(self) -> int:
        return len(self._findings)

    def spec_text(self) -> str:
        return "unserializable access patterns (AVIO table)"

    def snapshot(self) -> dict:
        d = super().snapshot()
        d.update(
            data_events=self._data_events,
            live_accesses=sum(len(v) for v in self._accesses.values()),
            retired=self._retired,
            open_regions=len(self._open),
        )
        return d


def _make_atomicity(arg: Optional[str], n_threads: int,
                    initial: Mapping[VarName, Any],
                    default_spec: Optional[str]) -> AtomicityEngine:
    # no configuration yet; reject a stray argument loudly
    if arg:
        raise ValueError(
            f"the atomicity engine takes no argument (got {arg!r})")
    return AtomicityEngine(n_threads)


register_engine("atomicity", _make_atomicity)
