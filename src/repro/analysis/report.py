"""One-stop analysis reports: everything the tool knows about an execution.

Combines the individual analyses — predictive safety checking, data races,
potential deadlocks, and (optionally) predicate modalities — into a single
structured result with a human-readable rendering, which is what a user of
the original tool would actually read.  Drives ``python -m repro analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.algorithm_a import all_accesses
from ..logic.monitor import Monitor
from ..sched.scheduler import ExecutionResult
from .atomicity import AtomicityViolation, find_atomicity_violations
from .datarace import Race, find_races
from .deadlock import PotentialDeadlock, find_potential_deadlocks
from .predictive import PredictionReport, predict

__all__ = ["AnalysisReport", "analyze"]


@dataclass
class AnalysisReport:
    """Aggregated findings for one instrumented execution."""

    program_name: str
    n_threads: int
    n_events: int
    n_messages: int
    #: Per-spec prediction outcomes (empty if no specs were given).
    predictions: dict[str, PredictionReport] = field(default_factory=dict)
    races: list[Race] = field(default_factory=list)
    deadlocks: list[PotentialDeadlock] = field(default_factory=list)
    atomicity: list[AtomicityViolation] = field(default_factory=list)
    #: Whether race detection actually ran (it needs a sync-only-clocks,
    #: all-accesses instrumented execution; see :func:`analyze`).
    races_checked: bool = False

    @property
    def clean(self) -> bool:
        """No finding of any kind."""
        return (
            all(r.ok for r in self.predictions.values())
            and not self.races
            and not self.deadlocks
            and not self.atomicity
        )

    def summary(self) -> str:
        lines = [
            f"analysis of {self.program_name}: {self.n_threads} threads, "
            f"{self.n_events} events, {self.n_messages} relevant messages"
        ]
        for spec, rep in self.predictions.items():
            if rep.ok:
                verdict = "holds on every consistent run"
            elif rep.predicted:
                verdict = (f"VIOLATED in {len(rep.violations)} predicted "
                           f"run(s) — observed run was successful")
            else:
                verdict = "VIOLATED on the observed run"
            lines.append(f"  spec {spec}: {verdict}")
        if self.races_checked:
            lines.append(f"  data races: {len(self.races)}")
            for r in self.races[:10]:
                lines.append(f"    {r.pretty()}")
        else:
            lines.append("  data races: not checked (needs all-accesses + "
                         "sync-only-clocks instrumentation)")
        lines.append(f"  potential deadlocks: {len(self.deadlocks)}")
        for d in self.deadlocks:
            lines.append(f"    {d.pretty()}")
        lines.append(f"  atomicity violations: {len(self.atomicity)}")
        for a in self.atomicity[:10]:
            lines.append(f"    {a.pretty()}")
        lines.append(f"verdict: {'CLEAN' if self.clean else 'FINDINGS'}")
        return "\n".join(lines)


def analyze(
    execution: ExecutionResult,
    specs: Sequence[str | Monitor] = (),
    check_races: Optional[bool] = None,
) -> AnalysisReport:
    """Run every applicable analysis over one execution.

    Race detection requires the execution to have been instrumented with
    ``all_accesses`` relevance *and* ``sync_only_clocks=True``; by default it
    runs iff read events are present in the message stream (a heuristic for
    that configuration), and can be forced on/off with ``check_races``.
    """
    report = AnalysisReport(
        program_name=execution.program_name,
        n_threads=execution.n_threads,
        n_events=len(execution.events),
        n_messages=len(execution.messages),
    )
    for spec in specs:
        rep = predict(execution, spec)
        report.predictions[rep.spec] = rep

    has_reads = any(m.event.kind.is_read for m in execution.messages)
    do_races = has_reads if check_races is None else check_races
    if do_races:
        report.races = find_races(execution)
        report.races_checked = True
    report.deadlocks = find_potential_deadlocks(execution)
    report.atomicity = find_atomicity_violations(execution)
    return report
