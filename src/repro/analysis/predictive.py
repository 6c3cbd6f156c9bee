"""Predictive runtime analysis — the JMPaX observer (paper §4, §4.1).

Given one instrumented execution, build the computation lattice from its
relevant messages and check the specification against **every** consistent
multithreaded run in parallel, level by level.  A violation found on an
unobserved run is a *predicted* error: it can occur under a different thread
scheduling even though the observed execution was successful.

Two engines:

* ``mode="levels"`` (default) — the paper's online, space-bounded analysis:
  one :class:`~repro.engines.ltl.LtlEngine` on the analysis bus, the sweep
  every served session runs (≤2 levels resident, one state set per node).
* ``mode="full"``   — materialize the lattice and enumerate runs; finds
  *every* violating run individually (exponential; used for figures and as
  a cross-check oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.events import Message
from ..engines.bus import AnalysisBus
from ..engines.ltl import LtlEngine, resolve_monitor, spec_initial_state
from ..lattice.full import ComputationLattice
from ..lattice.levels import BuilderStats, Violation
from ..obs import tracing as _tracing
from ..logic.ast import Formula
from ..logic.composite import CompositeMonitor
from ..logic.monitor import Monitor
from ..sched.scheduler import ExecutionResult
from .detector import DetectionResult, detect

__all__ = ["PredictionReport", "predict", "predict_many"]


@dataclass
class PredictionReport:
    """Outcome of predictive analysis of one execution."""

    program_name: str
    spec: str
    #: Did the *observed* run itself satisfy the property?
    observed_ok: bool
    #: Index of the first violating state on the observed run (if any).
    observed_violation_index: Optional[int]
    #: Predicted violations (including the observed one if it violates).
    violations: list[Violation]
    #: Number of lattice nodes (full mode) or nodes expanded (levels mode).
    nodes: int
    #: Number of runs in the lattice (full mode only; -1 in levels mode —
    #: the online engine never enumerates runs).
    n_runs: int
    #: Resource stats (levels mode only).
    stats: Optional[BuilderStats] = field(default=None, repr=False)

    @property
    def predicted(self) -> bool:
        """True when analysis found violations beyond the observed run —
        the paper's headline capability."""
        return bool(self.violations) and self.observed_ok

    @property
    def ok(self) -> bool:
        """No violation anywhere in the lattice."""
        return not self.violations


def _sweep(execution: ExecutionResult,
           monitor: Monitor | CompositeMonitor) -> LtlEngine:
    """The level-by-level sweep: the execution's messages (emission order,
    a linear extension of ⊳) through the analysis bus to one LTL engine."""
    with _tracing.span("predict.levels", program=execution.program_name,
                       messages=len(execution.messages)):
        engine = LtlEngine(execution.n_threads, execution.initial_store,
                           monitor)
        bus = AnalysisBus(execution.n_threads, [engine])
        bus.feed_batch(execution.messages)
        bus.finish()
    return engine


def _report(observed: DetectionResult, violations: list[Violation],
            nodes: int, n_runs: int = -1,
            stats: Optional[BuilderStats] = None) -> PredictionReport:
    return PredictionReport(observed.program_name, observed.spec, observed.ok,
                            observed.violation_index, violations, nodes,
                            n_runs, stats)


def predict(
    execution: ExecutionResult,
    spec: str | Formula | Monitor,
    mode: str = "levels",
    run_limit: Optional[int] = None,
) -> PredictionReport:
    """Predictively analyze one execution against a safety specification.

    The relevant variables are taken from the specification (JMPaX's rule);
    the execution must have been instrumented with a relevance predicate
    covering at least writes of those variables (the default scheduler
    configuration does).
    """
    monitor = resolve_monitor(spec)
    # Observed-run verdict (what a single-trace checker would conclude).
    with _tracing.span("predict.observed_check",
                       program=execution.program_name):
        observed = detect(execution, monitor)

    if mode == "levels":
        engine = _sweep(execution, monitor)
        return _report(observed, engine.violations,
                       engine.stats.nodes_expanded, stats=engine.stats)
    if mode == "full":
        with _tracing.span("predict.full", program=execution.program_name,
                           messages=len(execution.messages)):
            initial = spec_initial_state(execution.initial_store,
                                         observed.variables)
            lattice = ComputationLattice(execution.n_threads, initial,
                                         execution.messages)
            violations: list[Violation] = []
            checked = 0
            for run in lattice.runs(limit=run_limit):
                checked += 1
                ok, k = monitor.check_trace([dict(s) for s in run.states])
                if not ok:
                    violations.append(
                        Violation(
                            messages=run.messages[:k],
                            states=run.states[: k + 1],
                            cut=_cut_of_prefix(execution.n_threads,
                                               run.messages[:k]),
                            monitor_state=None,
                        )
                    )
        return _report(observed, violations, len(lattice), n_runs=checked)
    raise ValueError(f"unknown mode {mode!r} (expected 'levels' or 'full')")


def _cut_of_prefix(n_threads: int, messages: Sequence[Message]) -> tuple[int, ...]:
    cut = [0] * n_threads
    for m in messages:
        cut[m.thread] += 1
    return tuple(cut)


def predict_many(
    execution: ExecutionResult,
    specs: Sequence[str | Formula | Monitor],
) -> dict[str, PredictionReport]:
    """Check several specifications in **one** lattice sweep.

    A :class:`~repro.logic.composite.CompositeMonitor` bundles the monitors;
    violations are attributed to the specs whose verdict turned false at the
    violating state.  Returns one :class:`PredictionReport` per spec, keyed
    by its formula string, each carrying only its own violations (shared
    ``stats`` object: the sweep happened once).
    """
    composite = CompositeMonitor(specs)
    engine = _sweep(execution, composite)

    per_spec: dict[int, list[Violation]] = {i: [] for i in range(len(composite))}
    for v in engine.violations:
        for i in composite.failing_specs(v.monitor_state):
            per_spec[i].append(v)

    stats = engine.stats
    return {
        str(monitor.formula): _report(detect(execution, monitor), per_spec[i],
                                      stats.nodes_expanded, stats=stats)
        for i, monitor in enumerate(composite.monitors)
    }
