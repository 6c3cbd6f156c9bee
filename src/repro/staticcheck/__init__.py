"""Static shared-state analysis for instrumented programs.

Two cooperating passes over program source, run *before* execution:

* **Soundness lint** (:mod:`.soundness`) — escape analysis over every
  function reachable from the instrumented entry points, reporting
  shared-state accesses the AST rewriter would miss or miscompile
  (aliases, closures, attribute mutation, un-instrumented helpers, …)
  as :class:`~repro.staticcheck.diagnostics.Diagnostic` findings with
  stable SC-codes and ``file:line:col`` spans.
* **Spec-relevance slicer** (:mod:`.slicer`) — computes the
  transitively-closed set of variables that can influence the
  specification (JMPaX §4.1's "extract the shared variables from the
  spec"), whose :meth:`~.slicer.SliceResult.predicate` is Algorithm A's
  ``relevance=`` predicate.
* **Spec consistency checker** (:mod:`.speccheck`) — bounded
  satisfiability / falsifiability / vacuity analysis of specification
  formulas and ``pattern:STEPS`` engine selections, with synthesized
  witness and counter traces (SC3xx codes, ``repro spec check``).

``repro lint`` / ``repro spec check`` are the CLI front doors;
docs/STATIC.md and docs/SPECCHECK.md hold the diagnostic catalogues.
"""

from .diagnostics import (
    CATALOGUE,
    Diagnostic,
    DiagnosticSpec,
    JSON_SCHEMA_VERSION,
    LintReport,
    Severity,
)
from .slicer import (
    SliceResult,
    close_slice,
    minilang_flows,
    python_flows,
    slice_minilang,
    slice_python_functions,
    spec_variables,
)
from .soundness import (
    lint_function,
    lint_minilang_source,
    lint_path,
    lint_paths,
    lint_python_source,
)
from .speccheck import (
    STRICT_REJECT_WARNS,
    SpecCheckOptions,
    SpecCheckReport,
    SpecCheckResult,
    SpecSource,
    WitnessTrace,
    check_formula,
    check_pattern,
    check_selection,
    check_spec_file,
    check_spec_text,
    scan_python_specs,
    strict_reject_reason,
    validate_selection_syntax,
    validate_spec_syntax,
)

__all__ = [
    "CATALOGUE",
    "Diagnostic",
    "DiagnosticSpec",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "Severity",
    "SliceResult",
    "close_slice",
    "minilang_flows",
    "python_flows",
    "slice_minilang",
    "slice_python_functions",
    "spec_variables",
    "lint_function",
    "lint_minilang_source",
    "lint_path",
    "lint_paths",
    "lint_python_source",
    "STRICT_REJECT_WARNS",
    "SpecCheckOptions",
    "SpecCheckReport",
    "SpecCheckResult",
    "SpecSource",
    "WitnessTrace",
    "check_formula",
    "check_pattern",
    "check_selection",
    "check_spec_file",
    "check_spec_text",
    "scan_python_specs",
    "strict_reject_reason",
    "validate_selection_syntax",
    "validate_spec_syntax",
]
