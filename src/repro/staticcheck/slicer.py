"""Spec-relevance instrumentation slicing.

JMPaX instruments exactly the variables the specification mentions plus
whatever feeds them (§4.1: the instrumentor "extracts the set of shared
variables from the specification").  This module computes that set
statically:

1. :func:`spec_variables` — the variable support of a formula (via the
   :mod:`repro.logic` AST);
2. flow extraction — for each *write* of a shared variable, the set of
   shared variables whose values can flow into it (through local-variable
   taint), from either Python sources (rewriter-style functions *and*
   generator workloads yielding ``Read``/``Write`` ops) or MiniLang ASTs;
3. :func:`close_slice` — the transitive closure: a variable is *relevant*
   iff the spec mentions it or its value can reach a relevant write.

The slice is consumed as Algorithm A's relevance predicate
(:meth:`SliceResult.predicate`): accesses to sliced-out variables emit no
message but still merge vector clocks, so the causal order among the
surviving messages stays exact.  That is what makes a data-flow-only
closure enough — a control dependence (``if d == 1: y = 1``) leaves ``d``
out of the slice, yet the clock merge on the read of ``d`` still orders
``y = 1`` after everything that preceded the write of ``d``.
"""

from __future__ import annotations

import ast as pyast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

from ..lang.ast import (
    Assign as MlAssign,
    Binary as MlBinary,
    Block as MlBlock,
    Expr as MlExpr,
    If as MlIf,
    LocalDecl as MlLocalDecl,
    Name as MlName,
    ProgramAst,
    Stmt as MlStmt,
    Unary as MlUnary,
    While as MlWhile,
)
from ..logic.ast import Formula, variables_of

__all__ = [
    "SliceResult",
    "spec_variables",
    "close_slice",
    "python_flows",
    "minilang_flows",
    "slice_python_functions",
    "slice_minilang",
]

SpecLike = Union[str, Formula]


def spec_variables(spec: SpecLike) -> frozenset[str]:
    """The variable support of a specification (string or parsed formula)."""
    if isinstance(spec, str):
        from ..logic.parser import parse

        spec = parse(spec)
    return variables_of(spec)


@dataclass(frozen=True)
class SliceResult:
    """Outcome of the relevance closure.

    ``flows`` maps each written shared variable to the shared variables
    whose values may flow into it (the union over all analyzed writes).
    """

    spec_vars: frozenset[str]
    relevant: frozenset[str]
    shared: frozenset[str]
    flows: Mapping[str, frozenset[str]]

    @property
    def irrelevant(self) -> frozenset[str]:
        return self.shared - self.relevant

    def predicate(self):
        """Algorithm A relevance predicate emitting only sliced writes."""
        from ..core.algorithm_a import relevant_writes

        return relevant_writes(self.relevant)

    def why(self, var: str) -> str:
        """One-line human explanation of a variable's slice membership."""
        if var in self.spec_vars:
            return f"{var}: mentioned by the specification"
        if var in self.relevant:
            sinks = sorted(w for w, deps in self.flows.items()
                           if var in deps and w in self.relevant)
            return f"{var}: flows into relevant write(s) of {sinks}"
        return f"{var}: no flow into any relevant write"


def close_slice(
    spec_vars: Iterable[str],
    flows: Mapping[str, Iterable[str]],
    shared: Optional[Iterable[str]] = None,
) -> SliceResult:
    """Transitively close ``spec_vars`` over the write data-flow edges.

    ``flows[w] = deps`` means a write of ``w`` reads from ``deps``; if
    ``w`` is relevant every dep becomes relevant, to fixpoint.
    """
    frozen_flows = {w: frozenset(deps) for w, deps in flows.items()}
    relevant = set(spec_vars)
    changed = True
    while changed:
        changed = False
        for w, deps in frozen_flows.items():
            if w in relevant and not deps <= relevant:
                relevant |= deps
                changed = True
    shared_set = (frozenset(shared) if shared is not None
                  else frozenset(frozen_flows) | relevant)
    return SliceResult(
        spec_vars=frozenset(spec_vars),
        relevant=frozenset(relevant),
        shared=shared_set,
        flows=frozen_flows,
    )


# ---------------------------------------------------------------------------
# Python flow extraction
# ---------------------------------------------------------------------------

def _const_var(node: pyast.expr) -> Optional[str]:
    if isinstance(node, pyast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _PyFlows:
    """Per-function taint propagation: local name -> shared deps.

    Handles three access styles uniformly:

    * rewriter-style bare shared names (``y = x + 1``);
    * runtime calls (``rt.read("x")`` / ``rt.write("x", e)`` /
      ``rt.update("x", f)``);
    * generator workloads (``v = yield Read("x")`` / ``yield Write("x", e)``).
    """

    def __init__(self, shared: frozenset[str]):
        self.shared = shared
        self.locals: dict[str, frozenset[str]] = {}
        self.flows: dict[str, set[str]] = {}

    # -- expression taint -----------------------------------------------------

    def taint(self, node: Optional[pyast.expr]) -> frozenset[str]:
        if node is None:
            return frozenset()
        if isinstance(node, pyast.Name):
            if node.id in self.shared:
                return frozenset({node.id})
            return self.locals.get(node.id, frozenset())
        if isinstance(node, pyast.Yield):
            # `v = yield Read("x")` — the sent-back value is the read.
            inner = node.value
            var = self._op_read_var(inner)
            if var is not None:
                return frozenset({var})
            return self.taint(inner)
        if isinstance(node, pyast.Call):
            var = self._runtime_read_var(node)
            if var is not None:
                return frozenset({var})
            out: frozenset[str] = self.taint(node.func)
            for a in node.args:
                out |= self.taint(a)
            for kw in node.keywords:
                out |= self.taint(kw.value)
            return out
        out = frozenset()
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, pyast.expr):
                out |= self.taint(child)
            elif isinstance(child, pyast.comprehension):
                out |= self.taint(child.iter)
                for cond in child.ifs:
                    out |= self.taint(cond)
        return out

    def _op_read_var(self, node: Optional[pyast.expr]) -> Optional[str]:
        """``Read("x")`` op constructors in generator workloads."""
        if (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Name)
                and node.func.id == "Read" and node.args):
            return _const_var(node.args[0])
        return None

    def _runtime_read_var(self, node: pyast.Call) -> Optional[str]:
        """``<anything>.read("x")`` runtime-method reads."""
        if (isinstance(node.func, pyast.Attribute)
                and node.func.attr == "read" and node.args):
            return _const_var(node.args[0])
        return None

    # -- statement walk -------------------------------------------------------

    def _record_write(self, var: str, deps: frozenset[str]) -> None:
        self.flows.setdefault(var, set()).update(deps)

    def visit_stmt(self, node: pyast.stmt) -> None:
        if isinstance(node, pyast.Assign):
            deps = self.taint(node.value)
            for tgt in node.targets:
                self._bind_target(tgt, deps)
        elif isinstance(node, pyast.AnnAssign) and node.value is not None:
            self._bind_target(node.target, self.taint(node.value))
        elif isinstance(node, pyast.AugAssign):
            if isinstance(node.target, pyast.Name):
                name = node.target.id
                deps = self.taint(node.value)
                if name in self.shared:
                    self._record_write(name, deps | {name})
                else:
                    self.locals[name] = (
                        self.locals.get(name, frozenset()) | deps)
        elif isinstance(node, pyast.Expr):
            self._scan_effect(node.value)
        elif isinstance(node, pyast.Return):
            pass
        elif isinstance(node, pyast.For):
            deps = self.taint(node.iter)
            self._bind_target(node.target, deps)
            for s in node.body + node.orelse:
                self.visit_stmt(s)
        elif isinstance(node, (pyast.While, pyast.If)):
            for s in node.body + node.orelse:
                self.visit_stmt(s)
        elif isinstance(node, pyast.With):
            for item in node.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars,
                                      self.taint(item.context_expr))
            for s in node.body:
                self.visit_stmt(s)
        elif isinstance(node, pyast.Try):
            for s in (node.body + node.orelse + node.finalbody
                      + [s for h in node.handlers for s in h.body]):
                self.visit_stmt(s)
        elif isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            # Nested bodies run in the same shared store; analyze inline.
            for s in node.body:
                self.visit_stmt(s)
        # remaining statement kinds carry no shared writes

    def _bind_target(self, tgt: pyast.expr, deps: frozenset[str]) -> None:
        if isinstance(tgt, pyast.Name):
            if tgt.id in self.shared:
                self._record_write(tgt.id, deps)
            else:
                self.locals[tgt.id] = self.locals.get(tgt.id, frozenset()) | deps
        elif isinstance(tgt, (pyast.Tuple, pyast.List)):
            for elt in tgt.elts:
                self._bind_target(elt, deps)
        elif isinstance(tgt, pyast.Starred):
            self._bind_target(tgt.value, deps)
        # attribute/subscript targets never bind shared *names*

    def _scan_effect(self, node: pyast.expr) -> None:
        """Expression statements that perform writes."""
        if isinstance(node, pyast.Yield):
            node = node.value  # `yield Write(...)`
            if node is None:
                return
        if not isinstance(node, pyast.Call):
            return
        # Write("x", e) op constructor
        if (isinstance(node.func, pyast.Name) and node.func.id == "Write"
                and len(node.args) >= 2):
            var = _const_var(node.args[0])
            if var is not None:
                self._record_write(var, self.taint(node.args[1]))
                return
        if isinstance(node.func, pyast.Attribute) and node.args:
            var = _const_var(node.args[0])
            if var is None:
                return
            if node.func.attr == "write" and len(node.args) >= 2:
                self._record_write(var, self.taint(node.args[1]))
            elif node.func.attr == "update" and len(node.args) >= 2:
                # rt.update("x", fn): read-modify-write of x
                self._record_write(var, self.taint(node.args[1]) | {var})


def _function_defs(source_or_fn) -> list[pyast.FunctionDef]:
    """All function definitions (including nested ones) in a callable's
    source or a source string."""
    if callable(source_or_fn):
        src = textwrap.dedent(inspect.getsource(source_or_fn))
    else:
        src = textwrap.dedent(source_or_fn)
    tree = pyast.parse(src)
    return [n for n in pyast.walk(tree)
            if isinstance(n, (pyast.FunctionDef, pyast.AsyncFunctionDef))]


def python_flows(
    sources: Iterable[Union[Callable, str, pyast.FunctionDef]],
    shared: Iterable[str],
) -> dict[str, frozenset[str]]:
    """Write data-flow edges over Python sources.

    ``sources`` may mix callables (source fetched via ``inspect``), source
    strings, and already-parsed function definitions.  Bodies are iterated
    to a fixpoint so taint survives loops (``a = b; x = a`` in a ``while``
    converges in two passes).
    """
    shared_set = frozenset(shared)
    defs: list[pyast.FunctionDef] = []
    for src in sources:
        if isinstance(src, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            defs.append(src)
        else:
            defs.extend(_function_defs(src))
    flows: dict[str, set[str]] = {}
    for fdef in defs:
        fl = _PyFlows(shared_set)
        # Fixpoint: loop bodies can feed taints backwards.
        for _ in range(max(2, len(shared_set))):
            before = ({k: frozenset(v) for k, v in fl.flows.items()},
                      dict(fl.locals))
            for stmt in fdef.body:
                fl.visit_stmt(stmt)
            after = ({k: frozenset(v) for k, v in fl.flows.items()},
                     dict(fl.locals))
            if before == after:
                break
        for w, deps in fl.flows.items():
            flows.setdefault(w, set()).update(deps)
    return {w: frozenset(deps) for w, deps in flows.items()}


def slice_python_functions(
    fns: Iterable[Union[Callable, str]],
    shared: Iterable[str],
    spec: SpecLike,
) -> SliceResult:
    """Slice ``shared`` down to the spec-relevant closure over ``fns``."""
    shared_set = frozenset(shared)
    flows = python_flows(fns, shared_set)
    return close_slice(spec_variables(spec), flows, shared=shared_set)


# ---------------------------------------------------------------------------
# MiniLang flow extraction
# ---------------------------------------------------------------------------


def _ml_expr_vars(e: MlExpr, shared: frozenset[str],
                  locals_taint: Mapping[str, frozenset[str]]) -> frozenset[str]:
    if isinstance(e, MlName):
        if e.ident in shared:
            return frozenset({e.ident})
        return locals_taint.get(e.ident, frozenset())
    if isinstance(e, MlUnary):
        return _ml_expr_vars(e.operand, shared, locals_taint)
    if isinstance(e, MlBinary):
        return (_ml_expr_vars(e.left, shared, locals_taint)
                | _ml_expr_vars(e.right, shared, locals_taint))
    return frozenset()


def minilang_flows(program: ProgramAst) -> dict[str, frozenset[str]]:
    """Write data-flow edges over every thread of a MiniLang program."""
    shared = frozenset(program.shared_names())
    flows: dict[str, set[str]] = {}

    def walk(stmts: Iterable[MlStmt],
             taint: dict[str, frozenset[str]]) -> None:
        for s in stmts:
            if isinstance(s, MlAssign):
                deps = _ml_expr_vars(s.value, shared, taint)
                if s.target in shared:
                    flows.setdefault(s.target, set()).update(deps)
                else:
                    taint[s.target] = taint.get(s.target, frozenset()) | deps
            elif isinstance(s, MlLocalDecl):
                taint[s.name] = _ml_expr_vars(s.value, shared, taint)
            elif isinstance(s, MlIf):
                walk(s.then.statements, taint)
                if s.orelse is not None:
                    walk(s.orelse.statements, taint)
            elif isinstance(s, MlWhile):
                walk(s.body.statements, taint)
            elif isinstance(s, MlBlock):
                walk(s.statements, taint)
            # sync/skip/spawn statements carry no data flow

    for thread in program.threads:
        taint: dict[str, frozenset[str]] = {}
        # Fixpoint for while-loop back-edges.
        for _ in range(max(2, len(shared))):
            before = (dict(taint), {k: frozenset(v) for k, v in flows.items()})
            walk(thread.body.statements, taint)
            after = (dict(taint), {k: frozenset(v) for k, v in flows.items()})
            if before == after:
                break
    return {w: frozenset(deps) for w, deps in flows.items()}


def slice_minilang(
    source_or_ast: Union[str, ProgramAst],
    spec: SpecLike,
    filename: Optional[str] = None,
) -> SliceResult:
    """Slice a MiniLang program's shared set against a specification."""
    if isinstance(source_or_ast, str):
        from ..lang.parser import parse_source

        program = parse_source(source_or_ast, filename=filename)
    else:
        program = source_or_ast
    shared = frozenset(program.shared_names())
    flows = minilang_flows(program)
    return close_slice(spec_variables(spec), flows, shared=shared)
