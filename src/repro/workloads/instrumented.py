"""AST-instrumented landing controller: the rewriter route as a workload.

The other workloads are generator programs for the cooperative scheduler;
this one is the paper's headline pipeline end to end — *uninstrumented*
Python thread functions, to be rewritten by :func:`instrument_function`
and run on real threads.  It exists so the AST route has a first-class
workload for the slicing parity tests and ``repro lint`` in CI (the
linter discovers the entry points and the shared names from the
``repro-instrument``/``repro-shared`` directives below).

The thread bodies mirror Fig. 1's flight controller: the controller
approves the landing off the radio signal while the watchdog clears the
signal, plus an uninstrumentable-looking but perfectly sound amount of
local computation (`ticks`) that slicing should ignore.
"""

from __future__ import annotations

__all__ = [
    "LANDING_AST_PROPERTY",
    "LANDING_AST_SHARED",
    "controller",
    "radio_watchdog",
]

#: Same safety property as :mod:`repro.workloads.landing`, phrased over the
#: variables the AST route instruments.
LANDING_AST_PROPERTY = "start(landing == 1) -> [approved == 1, radio == 0)"

LANDING_AST_SHARED = ("landing", "approved", "radio", "ticks")

# repro-shared: landing, approved, radio, ticks
# repro-instrument: controller, radio_watchdog


def controller() -> None:
    # askLandingApproval(): decide off the radio signal.
    if radio == 0:          # noqa: F821 - rewritten into runtime reads
        approved = 0        # noqa: F841
    else:
        approved = 1        # noqa: F841
    ticks = ticks + 1       # noqa: F821,F841 - bookkeeping, spec-irrelevant
    if approved == 1:       # noqa: F821
        landing = 1         # noqa: F841


def radio_watchdog() -> None:
    # checkRadio(): the signal drops; bookkeeping again.
    local_polls = 2
    ticks = ticks + local_polls  # noqa: F821,F841
    radio = 0               # noqa: F841
