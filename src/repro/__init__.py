"""repro — MultiPathExplorer: predictive runtime analysis of multithreaded
programs via multithreaded vector clocks.

A from-scratch Python reproduction of

    Grigore Roşu and Koushik Sen,
    "An Instrumentation Technique for Online Analysis of Multithreaded
    Programs", PADTAD workshop at IPDPS 2004,

including the MVC instrumentation algorithm (Algorithm A), the computation
lattice, past-time-LTL monitor synthesis, and the JMPaX-style predictive
analyzer, plus the substrates needed to run it all reproducibly
(deterministic scheduler, reordering channels, real-thread backend).

Quickstart::

    from repro import run_program, FixedScheduler, predict
    from repro.workloads import (landing_controller,
                                 LANDING_OBSERVED_SCHEDULE, LANDING_PROPERTY)

    execution = run_program(landing_controller(),
                            FixedScheduler(LANDING_OBSERVED_SCHEDULE))
    report = predict(execution, LANDING_PROPERTY)
    assert report.observed_ok and report.violations   # bug predicted!

See ``examples/`` for full walk-throughs and ``DESIGN.md`` for the system
inventory and paper-experiment index.
"""

from .analysis import (
    AnalysisReport,
    DetectionResult,
    ModelCheckResult,
    PredictionReport,
    Race,
    analyze,
    definitely,
    detect,
    find_atomicity_violations,
    find_potential_deadlocks,
    find_races,
    find_races_from_messages,
    model_check,
    possibly,
    predict,
    predict_liveness_violations,
    predict_many,
    prediction_coverage,
)
from .core import (
    AlgorithmA,
    CausalityIndex,
    Computation,
    Event,
    EventKind,
    Message,
    MutableVectorClock,
    VectorClock,
    all_accesses,
    relevant_writes,
)
from .instrument import (
    InstrumentedRuntime,
    SharedArray,
    SharedStruct,
    SharedVar,
    instrument_function,
    run_threads,
    to_execution_result,
)
from .lattice import ComputationLattice, LevelByLevelBuilder, Run, Violation
from .logic import Monitor, evaluate_lasso, evaluate_trace, parse
from .lang import compile_source
from .observer import (
    CausalDelivery,
    FifoChannel,
    MultiChannel,
    Observer,
    ReorderingChannel,
    read_trace,
)
from .sched import (
    DeadlockError,
    ExecutionResult,
    FixedScheduler,
    PCTScheduler,
    Program,
    RandomScheduler,
    RoundRobinScheduler,
    explore_all,
    run_program,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "ModelCheckResult",
    "analyze",
    "definitely",
    "find_atomicity_violations",
    "find_potential_deadlocks",
    "model_check",
    "possibly",
    "predict_many",
    "prediction_coverage",
    "compile_source",
    "CausalDelivery",
    "read_trace",
    "PCTScheduler",
    "DetectionResult",
    "PredictionReport",
    "Race",
    "detect",
    "find_races",
    "find_races_from_messages",
    "predict",
    "predict_liveness_violations",
    "AlgorithmA",
    "CausalityIndex",
    "Computation",
    "Event",
    "EventKind",
    "Message",
    "MutableVectorClock",
    "VectorClock",
    "all_accesses",
    "relevant_writes",
    "InstrumentedRuntime",
    "SharedArray",
    "SharedStruct",
    "SharedVar",
    "instrument_function",
    "run_threads",
    "to_execution_result",
    "ComputationLattice",
    "LevelByLevelBuilder",
    "Run",
    "Violation",
    "Monitor",
    "evaluate_lasso",
    "evaluate_trace",
    "parse",
    "FifoChannel",
    "MultiChannel",
    "Observer",
    "ReorderingChannel",
    "DeadlockError",
    "ExecutionResult",
    "FixedScheduler",
    "Program",
    "RandomScheduler",
    "RoundRobinScheduler",
    "explore_all",
    "run_program",
    "__version__",
]
