"""Pluggable online analysis engines behind one analysis bus.

The observer extracts a single causal stream; the
:class:`~repro.engines.bus.AnalysisBus` computes the per-event clock
annotations once and fans the stream out to every registered
:class:`~repro.engines.base.AnalysisEngine`:

* ``ltl`` — predictive past-time LTL (the paper's analysis), via
  :class:`~repro.engines.ltl.LtlEngine`;
* ``atomicity`` — linear-time serializability over vector clocks, via
  :class:`~repro.engines.atomicity.AtomicityEngine`;
* ``pattern:<steps>`` — pattern-regular predictive monitoring, via
  :class:`~repro.engines.pattern.PatternEngine`.

Engines are selected with strings (see :func:`make_engine`) and report
through a uniform :class:`~repro.engines.base.EngineVerdict` contract.
"""

from .base import (
    ENGINE_FACTORIES,
    AnalysisEngine,
    DegradedWindow,
    EngineError,
    EngineVerdict,
    StreamVerdict,
    compute_degraded_windows,
    make_engine,
    make_engines,
    parse_engine_spec,
    register_engine,
)
from .bus import AnalysisBus, BusEvent, hb_concurrent, hb_precedes
from .atomicity import AtomicityEngine, AtomicityFinding
from .ltl import LtlEngine, SpecVariableError
from .pattern import PatternEngine, PatternMatch, parse_pattern

__all__ = [
    "AnalysisBus",
    "AnalysisEngine",
    "AtomicityEngine",
    "AtomicityFinding",
    "BusEvent",
    "DegradedWindow",
    "ENGINE_FACTORIES",
    "EngineError",
    "EngineVerdict",
    "LtlEngine",
    "PatternEngine",
    "PatternMatch",
    "SpecVariableError",
    "StreamVerdict",
    "compute_degraded_windows",
    "hb_concurrent",
    "hb_precedes",
    "make_engine",
    "make_engines",
    "parse_engine_spec",
    "parse_pattern",
    "register_engine",
]
