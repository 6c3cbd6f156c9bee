"""Past-time LTL prediction as a bus engine (the paper's analysis, §4).

The engine owns a :class:`~repro.lattice.levels.LevelByLevelBuilder`: it
feeds the builder the bus's causally-ordered messages, builds the
computation lattice level by level, and reports each predicted violation
the moment the buffered prefix proves it.  Offline
:func:`~repro.analysis.predictive.predict` *is* this engine, run on an
:class:`~repro.engines.bus.AnalysisBus` over a whole execution, so served,
replayed and offline verdicts come from one sweep.  The one check that a
spec's variables exist in the program's store lives here too.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..core.events import VarName
from ..lattice.levels import BuilderStats, LevelByLevelBuilder, Violation
from ..logic.ast import Formula
from ..logic.composite import CompositeMonitor
from ..logic.monitor import Monitor
from .base import AnalysisEngine, EngineError, compute_degraded_windows, \
    register_engine
from .bus import BusEvent

__all__ = ["LtlEngine", "SpecVariableError", "resolve_monitor",
           "spec_initial_state"]


class SpecVariableError(KeyError):
    """A specification names a variable the program's shared store lacks."""

    def __str__(self) -> str:  # KeyError would quote the message
        return str(self.args[0])


def resolve_monitor(
    spec: str | Formula | Monitor | CompositeMonitor,
) -> Monitor | CompositeMonitor:
    """A monitor for ``spec``; monitors (composite ones too) pass through."""
    return spec if isinstance(spec, (Monitor, CompositeMonitor)) \
        else Monitor(spec)


def spec_initial_state(
    store: Mapping[VarName, Any], variables: Sequence[str]
) -> dict[VarName, Any]:
    """The initial valuation of a specification's ``variables``.

    Raises :class:`SpecVariableError` when any of them is absent from the
    program's shared ``store``."""
    missing = [v for v in variables if v not in store]
    if missing:
        raise SpecVariableError(
            f"specification variables {missing} absent from the program's "
            f"shared store {sorted(map(str, store))}"
        )
    return {v: store[v] for v in variables}


class LtlEngine(AnalysisEngine):
    """Predictive past-time LTL checking (the paper's analysis)."""

    name = "ltl"
    version = "1"

    def __init__(self, n_threads: int, initial: Mapping[VarName, Any],
                 spec: str | Formula | Monitor | CompositeMonitor):
        super().__init__()
        monitor = resolve_monitor(spec)
        self._variables = sorted(monitor.variables)
        self._spec_text = spec if isinstance(spec, str) \
            else str(monitor.formula)
        self._builder = LevelByLevelBuilder(
            n_threads, spec_initial_state(initial, self._variables), monitor)
        self._reported = 0

    # -- streaming ------------------------------------------------------------

    def feed(self, ev: BusEvent) -> list[Violation]:
        return self.feed_batch((ev,))

    def feed_batch(self, evs: Sequence[BusEvent]) -> list[Violation]:
        """Buffer the whole batch, then advance the lattice once (same
        final state and violations however the stream is chunked)."""
        self._builder.feed_many(ev.msg for ev in evs)
        return self._drain()

    def finish(self) -> list[Violation]:
        self._finished = True
        self._builder.finish()
        return self._drain()

    def finish_partial(
        self,
        delivered_counts: Sequence[int],
        expected_counts: Optional[Sequence[int]] = None,
    ) -> list[Violation]:
        """Close the delivered sub-lattice: each thread is declared to end
        at its delivered count (a consistent cut, since causal delivery
        releases a message only after its causal past), so the levels
        complete instead of stalling on the gaps; verdicts on the prefix
        are exact."""
        self._finished = True
        self._degraded = compute_degraded_windows(delivered_counts,
                                                  expected_counts)
        for thread, delivered in enumerate(delivered_counts):
            self._builder.mark_thread_done(thread, delivered)
        self._builder.finish()
        return self._drain()

    def _drain(self) -> list[Violation]:
        new = self._builder.violations[self._reported:]
        self._reported = len(self._builder.violations)
        return new

    # -- results --------------------------------------------------------------

    @property
    def violations(self) -> list[Violation]:
        return list(self._builder.violations)

    @property
    def stats(self) -> BuilderStats:
        return self._builder.stats

    def counterexamples(self) -> list[str]:
        return [v.pretty(self._variables) for v in self._builder.violations]

    def finding_count(self) -> int:
        return len(self._builder.violations)

    def spec_text(self) -> str:
        return self._spec_text

    def snapshot(self) -> dict:
        d = super().snapshot()
        s = self._builder.stats
        d.update(levels=s.levels_completed, nodes=s.nodes_expanded,
                 buffered=s.messages_buffered)
        return d


def _make_ltl(arg: Optional[str], n_threads: int,
              initial: Mapping[VarName, Any],
              default_spec: Optional[str]) -> LtlEngine:
    spec = arg or default_spec
    if not spec:
        raise EngineError(
            "the ltl engine needs a specification: pass one inline "
            "('ltl:<formula>') or give the session a spec")
    return LtlEngine(n_threads, initial, spec)


register_engine("ltl", _make_ltl)
