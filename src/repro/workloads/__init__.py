"""Workloads: the paper's example programs and generators for tests/benches."""

from .bank import AUDIT_PROPERTY, CONSERVATION_PROPERTY, transfer_program
from .counters import locked_counter, peterson_like, racy_counter
from .landing import (
    LANDING_PROPERTY,
    LANDING_VARS,
    landing_controller,
)
from .landing import OBSERVED_SCHEDULE as LANDING_OBSERVED_SCHEDULE
from .instrumented import (
    LANDING_AST_PROPERTY,
    LANDING_AST_SHARED,
)
from .prodcons import handoff, producer_consumer
from .random_programs import random_execution_specs, random_program
from .rwlock import RW_PROPERTY, barrier_program, readers_writer
from .xyz import XYZ_PROPERTY, XYZ_VARS, xyz_program
from .xyz import OBSERVED_SCHEDULE as XYZ_OBSERVED_SCHEDULE

__all__ = [
    "AUDIT_PROPERTY",
    "CONSERVATION_PROPERTY",
    "transfer_program",
    "locked_counter",
    "peterson_like",
    "racy_counter",
    "LANDING_PROPERTY",
    "LANDING_VARS",
    "LANDING_OBSERVED_SCHEDULE",
    "landing_controller",
    "LANDING_AST_PROPERTY",
    "LANDING_AST_SHARED",
    "handoff",
    "producer_consumer",
    "random_execution_specs",
    "random_program",
    "RW_PROPERTY",
    "barrier_program",
    "readers_writer",
    "XYZ_PROPERTY",
    "XYZ_VARS",
    "XYZ_OBSERVED_SCHEDULE",
    "xyz_program",
]
