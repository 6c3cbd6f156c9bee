"""Predictive runtime analysis — the JMPaX observer (paper §4, §4.1).

Given one instrumented execution, build the computation lattice from its
relevant messages and check the specification against **every** consistent
multithreaded run in parallel, level by level.  A violation found on an
unobserved run is a *predicted* error: it can occur under a different thread
scheduling even though the observed execution was successful.

Two engines:

* ``mode="levels"`` (default) — the paper's online, space-bounded analysis
  (:class:`repro.lattice.levels.LevelByLevelBuilder`): at most two lattice
  levels resident, one monitor-state set per node.
* ``mode="full"``   — materialize the lattice and enumerate runs; finds
  *every* violating run individually (exponential; used for figures and as
  a cross-check oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..core.events import Message, VarName
from ..lattice.full import ComputationLattice
from ..lattice.levels import BuilderStats, LevelByLevelBuilder, Violation
from ..obs import tracing as _tracing
from ..logic.ast import Formula
from ..logic.monitor import Monitor
from ..sched.scheduler import ExecutionResult

__all__ = ["PredictionReport", "DegradedWindow", "predict", "predict_many"]


@dataclass(frozen=True)
class DegradedWindow:
    """A per-thread suffix of the computation the analysis never saw.

    When the transport loses the message at 1-based relevant position
    ``first_missing`` of ``thread``, every later message of that thread —
    and everything causally after it — is outside the analyzed sub-lattice.
    Verdicts touching cuts with ``cut[thread] >= first_missing`` are
    therefore *unsound*: neither violations nor their absence can be
    claimed there.  Verdicts on the analyzed prefix remain exact (the
    delivered subset is a consistent cut of the full computation, so its
    sub-lattice is a prefix of the full one).
    """

    thread: int
    #: First 1-based relevant index of ``thread`` that was never analyzed.
    first_missing: int
    #: Number of messages of this thread that *were* analyzed.
    analyzed: int

    def pretty(self) -> str:
        return (f"thread {self.thread}: sound through index {self.analyzed}, "
                f"unsound from index {self.first_missing}")


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
    #: Regions excluded from analysis because the transport lost messages
    #: (empty for fault-free runs: the whole computation was analyzed).
    degraded_windows: tuple[DegradedWindow, ...] = ()

    @property
    def sound_everywhere(self) -> bool:
        """True when no region of the computation was excluded — verdicts
        cover the entire lattice."""
        return not self.degraded_windows

    @property
    def predicted(self) -> bool:
        """True when analysis found violations beyond the observed run —
        the paper's headline capability."""
        return bool(self.violations) and self.observed_ok

    @property
    def ok(self) -> bool:
        """No violation anywhere in the lattice."""
        return not self.violations


def _resolve_monitor(spec: str | Formula | Monitor) -> Monitor:
    return spec if isinstance(spec, Monitor) else Monitor(spec)


def _initial_state(
    store: Mapping[VarName, Any], variables: Iterable[str]
) -> dict[VarName, Any]:
    missing = [v for v in variables if v not in store]
    if missing:
        raise KeyError(
            f"specification variables {missing} absent from the program's "
            f"shared store {sorted(map(str, store))}"
        )
    return {v: store[v] for v in variables}


def predict(
    execution: ExecutionResult,
    spec: str | Formula | Monitor,
    mode: str = "levels",
    track_paths: bool = True,
    run_limit: Optional[int] = None,
) -> PredictionReport:
    """Predictively analyze one execution against a safety specification.

    The relevant variables are taken from the specification (JMPaX's rule);
    the execution must have been instrumented with a relevance predicate
    covering at least writes of those variables (the default scheduler
    configuration does).
    """
    monitor = _resolve_monitor(spec)
    variables = sorted(monitor.variables)
    initial = _initial_state(execution.initial_store, variables)

    # Observed-run verdict (what a single-trace checker would conclude).
    with _tracing.span("predict.observed_check",
                       program=execution.program_name):
        observed_states = [dict(zip(variables, t))
                           for t in execution.relevant_state_sequence(variables)]
        observed_ok, observed_idx = monitor.check_trace(observed_states)

    if mode == "levels":
        with _tracing.span("predict.levels", program=execution.program_name,
                           messages=len(execution.messages)):
            builder = LevelByLevelBuilder(
                execution.n_threads, initial, monitor, track_paths=track_paths
            )
            builder.feed_many(execution.messages)
            builder.finish()
        return PredictionReport(
            program_name=execution.program_name,
            spec=str(monitor.formula),
            observed_ok=observed_ok,
            observed_violation_index=observed_idx,
            violations=list(builder.violations),
            nodes=builder.stats.nodes_expanded,
            n_runs=-1,
            stats=builder.stats,
        )
    if mode == "full":
        with _tracing.span("predict.full", program=execution.program_name,
                           messages=len(execution.messages)):
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
        return PredictionReport(
            program_name=execution.program_name,
            spec=str(monitor.formula),
            observed_ok=observed_ok,
            observed_violation_index=observed_idx,
            violations=violations,
            nodes=len(lattice),
            n_runs=checked,
            stats=None,
        )
    raise ValueError(f"unknown mode {mode!r} (expected 'levels' or 'full')")


def _cut_of_prefix(n_threads: int, messages: Sequence[Message]) -> tuple[int, ...]:
    cut = [0] * n_threads
    for m in messages:
        cut[m.thread] += 1
    return tuple(cut)


def predict_many(
    execution: ExecutionResult,
    specs: Sequence[str | Formula | Monitor],
    track_paths: bool = True,
) -> dict[str, PredictionReport]:
    """Check several specifications in **one** lattice sweep.

    A :class:`~repro.logic.composite.CompositeMonitor` bundles the monitors;
    violations are attributed to the specs whose verdict turned false at the
    violating state.  Returns one :class:`PredictionReport` per spec, keyed
    by its formula string, each carrying only its own violations (shared
    ``stats`` object: the sweep happened once).
    """
    from ..logic.composite import CompositeMonitor

    composite = CompositeMonitor(specs)
    variables = sorted(composite.variables)
    initial = _initial_state(execution.initial_store, variables)
    builder = LevelByLevelBuilder(
        execution.n_threads, initial, composite, track_paths=track_paths
    )
    builder.feed_many(execution.messages)
    builder.finish()

    per_spec: dict[int, list[Violation]] = {i: [] for i in range(len(composite))}
    for v in builder.violations:
        for i in composite.failing_specs(v.monitor_state):
            per_spec[i].append(v)

    reports: dict[str, PredictionReport] = {}
    for i, monitor in enumerate(composite.monitors):
        spec_vars = sorted(monitor.variables)
        observed_states = [
            dict(zip(spec_vars, t))
            for t in execution.relevant_state_sequence(spec_vars)
        ]
        ok, idx = monitor.check_trace(observed_states)
        reports[str(monitor.formula)] = PredictionReport(
            program_name=execution.program_name,
            spec=str(monitor.formula),
            observed_ok=ok,
            observed_violation_index=idx,
            violations=per_spec[i],
            nodes=builder.stats.nodes_expanded,
            n_runs=-1,
            stats=builder.stats,
        )
    return reports

