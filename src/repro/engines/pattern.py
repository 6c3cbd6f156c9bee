"""Predictive monitoring of pattern-regular properties (Ang & Mathur,
arXiv 2310.14611, adapted).

A *pattern* is a sequence of event templates ``p1 ; p2 ; ... ; pk``.  The
property is violated when **some consistent linearization** of the causal
partial order contains matching events in that order — a predictive
question, exactly like the LTL lattice: the observed schedule need not
have exhibited the ordering, it is enough that no causality forbids it.

The classical characterization makes this checkable without enumerating
linearizations: distinct events ``e1 .. ek`` (matching ``p1 .. pk``) occur
in pattern order in some linearization **iff there is no backward
causality** — ``∀ i < j: ¬(e_j ⊳ e_i)`` under the synchronization-only
happens-before order the bus annotates.

The online algorithm exploits that the bus's delivery order is a linear
extension of ⊳: maintain *partial assignments* (any subset of pattern
positions filled, not only prefixes — a witness for ``p2`` may well be
delivered before the eventual witness for ``p1``).  When event ``e``
arrives it may fill any open position ``q`` of an assignment:

* constraints against placed witnesses at positions ``< q`` need
  ``¬(e ⊳ w)`` — automatic, because ``w`` was delivered first and
  delivery extends ⊳;
* constraints against placed witnesses at positions ``> q`` need
  ``¬(w ⊳ e)`` — a Theorem 3 own-component test,
  ``e.hb[w.thread] < w.hb[w.thread]``, checked per placed witness.

Every pairwise constraint is therefore checked exactly once (when the
delivery-later event of the pair is placed).  Assignments with the same
filled-set are pruned by dominance (same witness threads, pointwise
larger own-components constrain the future strictly less) and capped per
filled-set; caps and any suppression are reported in :meth:`snapshot`
rather than hidden.

Template grammar (case-insensitive kinds)::

    step      := KIND '(' var ')' [ '@T' n ] [ '=' value ]
    KIND      := R | W | ACQ | REL | ANY
    pattern   := step (';' step)*

Examples: ``W(x) ; R(y) ; W(x)`` — a write of ``x`` can be followed (in
some schedule) by a read of ``y`` and another write of ``x``;
``W(flag)=1 ; R(flag)=0@T2`` adds value and thread constraints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..core.events import Event, EventKind, Message, VarName
from .base import AnalysisEngine, EngineError, register_engine
from .bus import BusEvent

__all__ = ["PatternEngine", "PatternStep", "PatternMatch", "parse_pattern"]

_STEP_RE = re.compile(
    r"^\s*(R|W|ACQ|REL|ANY)\s*\(\s*([^)\s]+)\s*\)"
    r"(?:\s*@\s*T(\d+))?"
    r"(?:\s*=\s*(\S+))?\s*$",
    re.IGNORECASE,
)

_KIND_MAP = {
    "R": (EventKind.READ,),
    "W": (EventKind.WRITE,),
    "ACQ": (EventKind.ACQUIRE,),
    "REL": (EventKind.RELEASE,),
    "ANY": (EventKind.READ, EventKind.WRITE,
            EventKind.ACQUIRE, EventKind.RELEASE),
}

#: Bound on partial assignments kept per filled-position set.
_MAX_CANDIDATES = 64
#: Bound on distinct matches reported per stream.
_MAX_MATCHES = 16


@dataclass(frozen=True)
class PatternStep:
    """One compiled template step."""

    kinds: tuple[EventKind, ...]
    var: str
    #: 0-based thread constraint (None = any thread).
    thread: Optional[int]
    #: String-compared value constraint (None = any value).
    value: Optional[str]
    text: str

    def matches(self, e: Event) -> bool:
        if e.kind not in self.kinds:
            return False
        if str(e.var) != self.var:
            return False
        if self.thread is not None and e.thread != self.thread:
            return False
        if self.value is not None and str(e.value) != self.value:
            return False
        return True


def parse_pattern(text: str) -> tuple[PatternStep, ...]:
    """Compile a pattern string; raises :class:`EngineError` on bad syntax."""
    steps: list[PatternStep] = []
    for raw in text.split(";"):
        if not raw.strip():
            raise EngineError(
                f"pattern {text!r} has an empty step (stray ';'?)")
        m = _STEP_RE.match(raw)
        if m is None:
            raise EngineError(
                f"bad pattern step {raw.strip()!r} (expected KIND(var) with "
                "KIND one of R/W/ACQ/REL/ANY, optionally @Tn and =value)")
        kind, var, thread, value = m.groups()
        steps.append(PatternStep(
            kinds=_KIND_MAP[kind.upper()],
            var=var,
            thread=int(thread) - 1 if thread is not None else None,
            value=value,
            text=raw.strip(),
        ))
    if not steps:
        raise EngineError("a pattern needs at least one step")
    return tuple(steps)


@dataclass(frozen=True)
class PatternMatch:
    """A complete witness: one event per pattern step, realizable in some
    linearization of the causal order."""

    pattern: str
    witnesses: tuple[Message, ...]

    @property
    def key(self) -> tuple:
        return tuple(m.event.eid for m in self.witnesses)

    def pretty(self) -> str:
        chain = " .. ".join(m.event.pretty() for m in self.witnesses)
        return f"pattern match [{self.pattern}]: {chain}"


class _Placed:
    """One placed witness: the message plus the Theorem 3 own-component
    future events are tested against."""

    __slots__ = ("msg", "thread", "own")

    def __init__(self, msg: Message, thread: int, own: int):
        self.msg = msg
        self.thread = thread
        self.own = own


class _Candidate:
    """A partial assignment: per pattern position, a witness or None."""

    __slots__ = ("placed",)

    def __init__(self, placed: tuple[Optional[_Placed], ...]):
        self.placed = placed


class PatternEngine(AnalysisEngine):
    """Online pattern matching over the causal partial order."""

    name = "pattern"
    version = "1"

    def __init__(self, n_threads: int, pattern: str):
        super().__init__()
        self._n = n_threads
        self._steps = parse_pattern(pattern)
        self._text = " ; ".join(s.text for s in self._steps)
        k = len(self._steps)
        self._k = k
        #: filled-position bitmask -> partial assignments; mask 0 is the
        #: permanent empty seed
        self._cands: dict[int, list[_Candidate]] = {
            0: [_Candidate((None,) * k)]}
        self._matches: list[PatternMatch] = []
        self._match_keys: set[tuple] = set()
        self._suppressed_candidates = 0
        self._suppressed_matches = 0
        self._events = 0

    # -- streaming ------------------------------------------------------------

    def feed(self, ev: BusEvent) -> list[PatternMatch]:
        if ev.hb is None:
            raise ValueError(
                "pattern engine needs sync-HB annotations (AnalysisBus)")
        self._events += 1
        e = ev.event
        hb = ev.hb
        k = self._k
        fits = [self._steps[q].matches(e) for q in range(k)]
        if not any(fits):
            return []
        new: list[PatternMatch] = []
        me = _Placed(ev.msg, ev.thread, hb[ev.thread])
        # snapshot: one arrival extends each existing assignment at most
        # once per open position (never cascades into its own offspring,
        # which would reuse the event for two steps of one chain)
        additions: list[tuple[int, _Candidate]] = []
        for mask, cands in self._cands.items():
            for cand in cands:
                for q in range(k):
                    if not fits[q] or mask & (1 << q):
                        continue
                    # positions < q: ¬(e ⊳ w) is automatic (w delivered
                    # first, delivery order extends ⊳); positions > q:
                    # require ¬(w ⊳ e), i.e. e must not cover w's own
                    # component
                    ok = True
                    for p in range(q + 1, k):
                        w = cand.placed[p]
                        if w is not None and hb[w.thread] >= w.own:
                            ok = False
                            break
                    if not ok:
                        continue
                    placed = list(cand.placed)
                    placed[q] = me
                    nxt = _Candidate(tuple(placed))
                    nmask = mask | (1 << q)
                    if nmask == (1 << k) - 1:
                        self._record(PatternMatch(
                            self._text,
                            tuple(w.msg for w in nxt.placed)), new)
                    else:
                        additions.append((nmask, nxt))
        for nmask, cand in additions:
            self._add_candidate(nmask, cand)
        return new

    def _record(self, match: PatternMatch,
                sink: list[PatternMatch]) -> None:
        if match.key in self._match_keys:
            return
        if len(self._matches) >= _MAX_MATCHES:
            self._suppressed_matches += 1
            return
        self._match_keys.add(match.key)
        self._matches.append(match)
        sink.append(match)

    @staticmethod
    def _dominates(a: _Candidate, b: _Candidate) -> bool:
        """``a`` constrains every future extension no more than ``b``:
        same witness threads, pointwise larger-or-equal own-components
        (the future test is ``hb[w.thread] < w.own`` — larger is looser).
        """
        for wa, wb in zip(a.placed, b.placed):
            if wa is None and wb is None:
                continue
            if wa.thread != wb.thread or wa.own < wb.own:
                return False
        return True

    def _add_candidate(self, mask: int, cand: _Candidate) -> None:
        kept = self._cands.setdefault(mask, [])
        for other in kept:
            if self._dominates(other, cand):
                return
        kept[:] = [other for other in kept
                   if not self._dominates(cand, other)]
        if len(kept) >= _MAX_CANDIDATES:
            self._suppressed_candidates += 1
            return
        kept.append(cand)

    # -- results --------------------------------------------------------------

    @property
    def matches(self) -> list[PatternMatch]:
        return list(self._matches)

    def counterexamples(self) -> list[str]:
        return [m.pretty() for m in self._matches]

    def finding_count(self) -> int:
        return len(self._matches)

    def spec_text(self) -> str:
        return self._text

    def snapshot(self) -> dict:
        d = super().snapshot()
        d.update(
            events=self._events,
            steps=self._k,
            candidates=sum(len(c) for c in self._cands.values()),
            suppressed_candidates=self._suppressed_candidates,
            suppressed_matches=self._suppressed_matches,
        )
        return d


def _make_pattern(arg: Optional[str], n_threads: int,
                  initial: Mapping[VarName, Any],
                  default_spec: Optional[str]) -> PatternEngine:
    if not arg:
        raise EngineError(
            "the pattern engine needs a pattern, e.g. "
            "'pattern:W(x);R(y);W(x)'")
    return PatternEngine(n_threads, arg)


register_engine("pattern", _make_pattern)
