"""Observed-run-only checking — the JPaX / Java-MaC baseline.

Systems like JPaX, Java-MaC and PET "are able to analyze only one path in
the lattice" (paper §4): the flat sequence of states the execution actually
passed through.  This module is that baseline; experiment E4 compares its
detection rate against the predictive analyzer over random schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..core.events import VarName
from ..engines.ltl import spec_initial_state
from ..logic.ast import Formula
from ..logic.monitor import Monitor
from ..sched.scheduler import ExecutionResult

__all__ = ["DetectionResult", "detect"]


@dataclass(frozen=True)
class DetectionResult:
    """Verdict of single-trace monitoring."""

    program_name: str
    spec: str
    ok: bool
    #: Index of the first violating state in the observed state sequence.
    violation_index: Optional[int]
    #: The observed global states (over the specification's variables).
    states: tuple[tuple, ...]
    variables: tuple[str, ...]

    def violating_state(self) -> Optional[Mapping[VarName, Any]]:
        if self.violation_index is None:
            return None
        return dict(zip(self.variables, self.states[self.violation_index]))


def detect(execution: ExecutionResult, spec: str | Formula | Monitor) -> DetectionResult:
    """Check the specification along the observed run only.

    The observed run is the sequence of global states after each *relevant*
    event, in emission order — exactly what a flat-trace monitor receives.
    Raises :class:`~repro.engines.ltl.SpecVariableError` when the
    specification names a variable the program's store lacks.
    """
    monitor = spec if isinstance(spec, Monitor) else Monitor(spec)
    variables = tuple(sorted(monitor.variables))
    spec_initial_state(execution.initial_store, variables)
    tuples = execution.relevant_state_sequence(variables)
    states = [dict(zip(variables, t)) for t in tuples]
    ok, idx = monitor.check_trace(states)
    return DetectionResult(
        program_name=execution.program_name,
        spec=str(monitor.formula),
        ok=ok,
        violation_index=idx,
        states=tuple(tuples),
        variables=variables,
    )
