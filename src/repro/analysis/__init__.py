"""Analyses over instrumented executions: predictive checking (JMPaX),
observed-run checking (JPaX baseline), data races, liveness lassos."""

from .atomicity import AtomicityViolation, AtomicRegion, find_atomicity_violations
from .coverage import CoverageReport, observations_to_cover, prediction_coverage
from .datarace import Race, find_races, find_races_from_messages
from .deadlock import (
    LockEdge,
    PotentialDeadlock,
    find_potential_deadlocks,
    lock_order_graph,
)
from .detector import DetectionResult, detect
from .liveness import (
    Lasso,
    LassoViolation,
    find_lassos,
    predict_liveness_violations,
)
from .modelcheck import ModelCheckResult, model_check
from .predicates import PredicateReport, as_predicate, definitely, possibly
from .predictive import PredictionReport, predict, predict_many
from .report import AnalysisReport, analyze

__all__ = [
    "AtomicityViolation",
    "AtomicRegion",
    "find_atomicity_violations",
    "CoverageReport",
    "observations_to_cover",
    "prediction_coverage",
    "Race",
    "find_races",
    "find_races_from_messages",
    "LockEdge",
    "PotentialDeadlock",
    "find_potential_deadlocks",
    "lock_order_graph",
    "DetectionResult",
    "detect",
    "Lasso",
    "LassoViolation",
    "find_lassos",
    "predict_liveness_violations",
    "ModelCheckResult",
    "model_check",
    "PredicateReport",
    "as_predicate",
    "definitely",
    "possibly",
    "PredictionReport",
    "predict",
    "predict_many",
    "AnalysisReport",
    "analyze",
]
