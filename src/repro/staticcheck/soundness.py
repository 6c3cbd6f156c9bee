"""Static shared-state soundness lint.

Algorithm A is only as sound as the event stream it sees.  The AST
rewriter (:mod:`repro.instrument.rewriter`) redirects accesses to
*declared shared names inside registered functions*; anything that smuggles
a shared value out of that window — aliases, closures handed to other
threads, attribute mutation through a shared binding, un-instrumented
helpers — produces shared-state traffic the observer never hears about.
This module finds those escapes **before** the program runs.

Analysis scope ("whole program" here = one module):

* entry points are the functions registered with the instrumentor —
  detected from ``instrument_function(fn, {...}, rt)`` call sites, from
  ``# repro-instrument: f, g`` directives, or passed explicitly;
* the shared set comes from literal sets at those call sites, from
  ``InstrumentedRuntime({...})`` literals, or ``# repro-shared: x, y``
  directives;
* every module-level function reachable through calls from an entry point
  is analyzed; shared accesses inside un-instrumented callees are
  escapes (SC106).

Each finding carries a stable code from
:data:`~repro.staticcheck.diagnostics.CATALOGUE` and a ``file:line:col``
span.  ERROR means the captured trace would be unsound; WARN means
suspicious-but-instrumented.  MiniLang sources get the SC2xx checks (the
compiler's rejections, surfaced as diagnostics instead of exceptions).
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from typing import Callable, Iterable, Optional, Union

from .diagnostics import Diagnostic, LintReport
from .slicer import minilang_flows, python_flows, close_slice, spec_variables

__all__ = [
    "lint_function",
    "lint_python_source",
    "lint_minilang_source",
    "lint_path",
    "lint_paths",
]

#: Builtins that neither retain nor mutate their arguments — passing a
#: shared value to them is not an escape.
_SAFE_BUILTINS = frozenset({
    "print", "len", "range", "int", "float", "str", "bool", "abs", "min",
    "max", "sum", "sorted", "repr", "format", "divmod", "round", "pow",
    "enumerate", "zip", "isinstance", "hash", "ord", "chr", "any", "all",
    "tuple", "list", "set", "frozenset", "dict",
})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "__setitem__", "__delitem__", "write", "writelines",
})

_DIRECTIVE_SHARED = re.compile(r"#\s*repro-shared:[ \t]*([\w, \t]+)")
_DIRECTIVE_INSTRUMENT = re.compile(r"#\s*repro-instrument:[ \t]*([\w, \t]+)")


def _names_in(m: re.Match) -> list[str]:
    return [n for n in re.split(r"[,\s]+", m.group(1).strip()) if n]


# ---------------------------------------------------------------------------
# Per-function escape analysis
# ---------------------------------------------------------------------------


class _FunctionLinter(ast.NodeVisitor):
    """Walk one instrumented function, reporting escapes of ``shared``.

    ``helpers`` maps module-level function names to their defs;
    ``instrumented`` names functions that are themselves registered (calls
    between instrumented functions are fine).
    """

    def __init__(
        self,
        shared: frozenset[str],
        filename: str,
        function: str,
        helpers: Optional[dict[str, ast.FunctionDef]] = None,
        instrumented: frozenset[str] = frozenset(),
    ):
        self.shared = shared
        self.filename = filename
        self.function = function
        self.helpers = helpers or {}
        self.instrumented = instrumented
        self.diags: list[Diagnostic] = []
        self._depth = 0  # 0 = entry function body, >0 = nested scope
        self._helper_touch_cache: dict[str, frozenset[str]] = {}

    # -- plumbing -------------------------------------------------------------

    def _emit(self, code: str, node: ast.AST, message: str,
              symbol: Optional[str] = None) -> None:
        self.diags.append(Diagnostic(
            code=code, message=message, file=self.filename,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            symbol=symbol, function=self.function))

    def _shared_loads(self, node: ast.AST) -> list[ast.Name]:
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id in self.shared
                and isinstance(n.ctx, ast.Load)]

    def _shared_stores(self, node: ast.AST) -> list[ast.Name]:
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id in self.shared
                and isinstance(n.ctx, ast.Store)]

    # -- entry ---------------------------------------------------------------

    def lint(self, fdef: ast.FunctionDef) -> list[Diagnostic]:
        self._check_params(fdef, entry=True)
        for stmt in fdef.body:
            self.visit(stmt)
        return self.diags

    def _check_params(self, fdef, entry: bool) -> None:
        args = fdef.args
        every = (args.posonlyargs + args.args + args.kwonlyargs
                 + ([args.vararg] if args.vararg else [])
                 + ([args.kwarg] if args.kwarg else []))
        for a in every:
            if a.arg in self.shared:
                self._emit(
                    "SC108", a,
                    f"parameter {a.arg!r} rebinds the shared variable "
                    f"{a.arg!r}", symbol=a.arg)
        if entry:
            for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None]:
                for name in self._shared_loads(default):
                    self._emit(
                        "SC104", name,
                        f"shared variable {name.id!r} read in a parameter "
                        f"default, which evaluates outside the monitored "
                        f"execution", symbol=name.id)

    # -- assignments ----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # alias = shared  (bare-name copy)
        if isinstance(node.value, ast.Name) and node.value.id in self.shared:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and tgt.id not in self.shared:
                    self._emit(
                        "SC101", node,
                        f"{tgt.id!r} aliases the shared variable "
                        f"{node.value.id!r}; accesses through the alias "
                        f"emit no events", symbol=node.value.id)
        # tuple RHS with bare shared elements into plain locals
        if isinstance(node.value, ast.Tuple):
            for tgt in node.targets:
                if isinstance(tgt, (ast.Tuple, ast.List)):
                    for t_el, v_el in zip(tgt.elts, node.value.elts):
                        if (isinstance(v_el, ast.Name)
                                and v_el.id in self.shared
                                and isinstance(t_el, ast.Name)
                                and t_el.id not in self.shared):
                            self._emit(
                                "SC101", v_el,
                                f"{t_el.id!r} aliases the shared variable "
                                f"{v_el.id!r} through tuple unpacking",
                                symbol=v_el.id)
        for tgt in node.targets:
            self._check_store_target(tgt, allow_plain_name=True)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target, allow_plain_name=True)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, allow_plain_name=True)
        self.generic_visit(node)

    def _check_store_target(self, tgt: ast.expr,
                            allow_plain_name: bool) -> None:
        """Stores through shared bindings or destructuring shared names."""
        if isinstance(tgt, ast.Name):
            return  # plain `x = e` (shared or local) is instrumented
        if isinstance(tgt, (ast.Attribute, ast.Subscript)):
            base = tgt.value
            if isinstance(base, ast.Name) and base.id in self.shared:
                kind = ("attribute" if isinstance(tgt, ast.Attribute)
                        else "subscript")
                self._emit(
                    "SC102", tgt,
                    f"{kind} store through the shared binding "
                    f"{base.id!r} mutates the shared value without a "
                    f"WRITE event", symbol=base.id)
            return
        if isinstance(tgt, (ast.Tuple, ast.List, ast.Starred)):
            for name in self._shared_stores(tgt):
                self._emit(
                    "SC111", name,
                    f"destructuring write to shared variable {name.id!r} "
                    f"is not instrumented", symbol=name.id)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        if node.target.id in self.shared:
            self._emit(
                "SC111", node,
                f"assignment expression (':=') targets shared variable "
                f"{node.target.id!r}, which is not instrumented",
                symbol=node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        for name in self._shared_stores(node.target):
            self._emit(
                "SC111", name,
                f"for-loop target rebinds shared variable {name.id!r}",
                symbol=name.id)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Name) and tgt.id in self.shared:
                self._emit(
                    "SC110", tgt,
                    f"cannot delete shared variable {tgt.id!r}",
                    symbol=tgt.id)
            else:
                self._check_store_target(tgt, allow_plain_name=False)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            if name in self.shared:
                self._emit(
                    "SC107", node,
                    f"'global' declaration of shared variable {name!r}",
                    symbol=name)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            if name in self.shared:
                self._emit(
                    "SC107", node,
                    f"'nonlocal' declaration of shared variable {name!r}",
                    symbol=name)

    # -- shadowing binders -----------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._with_items(node)
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def _with_items(self, node) -> None:
        for item in node.items:
            if item.optional_vars is None:
                continue
            for name in self._shared_stores(item.optional_vars):
                self._emit(
                    "SC109", name,
                    f"'with ... as {name.id}' rebinds the shared variable "
                    f"{name.id!r} for the rest of the scope",
                    symbol=name.id)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name and node.name in self.shared:
            self._emit(
                "SC109", node,
                f"'except ... as {node.name}' rebinds the shared variable "
                f"{node.name!r}", symbol=node.name)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self._import_aliases(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._import_aliases(node)

    def _import_aliases(self, node) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in self.shared:
                self._emit(
                    "SC109", node,
                    f"import binds {bound!r}, shadowing the shared "
                    f"variable", symbol=bound)

    # -- comprehensions --------------------------------------------------------

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            for name in self._shared_stores(gen.target):
                self._emit(
                    "SC105", name,
                    f"comprehension target rebinds shared variable "
                    f"{name.id!r}; reads inside the comprehension stop "
                    f"being shared accesses", symbol=name.id)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- closures --------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_scope(node, kind="nested function")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_scope(node, kind="nested function")

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._nested_scope(node, kind="lambda")

    def _nested_scope(self, node, kind: str) -> None:
        self._check_params(node, entry=False)
        body = node.body if isinstance(node.body, list) else [node.body]
        captured = sorted({n.id for stmt in body
                           for n in self._shared_loads(stmt)})
        if captured:
            label = (f"{kind} {node.name!r}"
                     if hasattr(node, "name") else kind)
            self._emit(
                "SC103", node,
                f"{label} captures shared "
                f"variable(s) {captured}; its accesses are attributed to "
                f"whatever thread eventually calls it",
                symbol=captured[0])
        self._depth += 1
        try:
            for stmt in body:
                self.visit(stmt)
        finally:
            self._depth -= 1

    # -- calls ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (isinstance(base, ast.Name) and base.id in self.shared
                    and node.func.attr in _MUTATORS):
                self._emit(
                    "SC102", node,
                    f"method .{node.func.attr}() mutates the shared value "
                    f"bound to {base.id!r} without a WRITE event",
                    symbol=base.id)
        elif isinstance(node.func, ast.Name):
            callee = node.func.id
            if callee in self.helpers and callee not in self.instrumented:
                touched = self._helper_touches(callee)
                if touched:
                    self._emit(
                        "SC106", node,
                        f"call into un-instrumented helper {callee!r}, "
                        f"which touches shared variable(s) "
                        f"{sorted(touched)}", symbol=callee)
            elif (callee not in self.helpers
                  and callee not in _SAFE_BUILTINS
                  and callee not in self.instrumented):
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in self.shared:
                        self._emit(
                            "SC112", arg,
                            f"shared variable {arg.id!r} passed to "
                            f"unresolvable callee {callee!r}; a mutable "
                            f"value can be mutated invisibly there",
                            symbol=arg.id)
        self.generic_visit(node)

    def _helper_touches(self, name: str,
                        _stack: Optional[frozenset[str]] = None) -> frozenset[str]:
        """Shared names a helper (transitively) touches — the reachability
        walk over the module call graph."""
        if name in self._helper_touch_cache:
            return self._helper_touch_cache[name]
        stack = _stack or frozenset()
        if name in stack:  # recursion cycle
            return frozenset()
        fdef = self.helpers.get(name)
        if fdef is None:
            return frozenset()
        touched: set[str] = set()
        for n in ast.walk(fdef):
            if isinstance(n, ast.Name) and n.id in self.shared:
                touched.add(n.id)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in self.helpers
                  and n.func.id not in self.instrumented):
                touched |= self._helper_touches(n.func.id,
                                               stack | {name})
        result = frozenset(touched)
        self._helper_touch_cache[name] = result
        return result


def lint_function(
    fn_or_def: Union[Callable, ast.FunctionDef, str],
    shared: Iterable[str],
    filename: Optional[str] = None,
    helpers: Optional[dict[str, ast.FunctionDef]] = None,
    instrumented: Iterable[str] = (),
) -> list[Diagnostic]:
    """Lint one function against a declared shared set.

    Accepts a live callable (source via ``inspect``), a parsed
    ``FunctionDef``, or a source string containing a single def.
    """
    line_offset = 0
    if isinstance(fn_or_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fdef = fn_or_def
        name = fdef.name
    else:
        if callable(fn_or_def):
            src = textwrap.dedent(inspect.getsource(fn_or_def))
            filename = filename or (inspect.getsourcefile(fn_or_def)
                                    or "<unknown>")
            line_offset = fn_or_def.__code__.co_firstlineno - 1
        else:
            src = textwrap.dedent(fn_or_def)
        tree = ast.parse(src)
        if line_offset:
            ast.increment_lineno(tree, line_offset)
        fdef = next(n for n in tree.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
        name = fdef.name
    linter = _FunctionLinter(
        frozenset(shared), filename or "<string>", name,
        helpers=helpers, instrumented=frozenset(instrumented) | {name})
    return linter.lint(fdef)


# ---------------------------------------------------------------------------
# Module-level (whole-program) analysis
# ---------------------------------------------------------------------------


def _literal_str_elems(node: ast.expr) -> Optional[list[str]]:
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out = []
        for el in node.elts:
            if isinstance(el, ast.Constant) and isinstance(el.value, str):
                out.append(el.value)
            else:
                return None
        return out
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("frozenset", "set") and node.args:
        return _literal_str_elems(node.args[0])
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def lint_python_source(
    text: str,
    filename: str = "<string>",
    spec: Optional[str] = None,
) -> list[Diagnostic]:
    """Whole-module lint: discover the instrumented entry points and the
    shared set, then run the escape analysis over everything reachable.

    Detection sources (all unioned):

    * ``instrument_function(f, {"x", "y"}, rt)`` call sites — ``f`` becomes
      an entry, the literal becomes shared names;
    * ``InstrumentedRuntime({"x": 0, ...})`` literals — keys become shared;
    * ``# repro-shared: x, y`` and ``# repro-instrument: f, g`` directives.
    """
    tree = ast.parse(text, filename)
    functions: dict[str, ast.FunctionDef] = {
        n.name: n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

    shared: set[str] = set()
    entries: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        cname = _call_name(node)
        if cname == "instrument_function" and node.args:
            if isinstance(node.args[0], ast.Name):
                entries.append(node.args[0].id)
            if len(node.args) >= 2:
                elems = _literal_str_elems(node.args[1])
                if elems:
                    shared.update(elems)
        elif cname == "InstrumentedRuntime" and node.args:
            arg0 = node.args[0]
            if isinstance(arg0, ast.Dict):
                for k in arg0.keys:
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        shared.add(k.value)

    for m in _DIRECTIVE_SHARED.finditer(text):
        shared.update(_names_in(m))
    for m in _DIRECTIVE_INSTRUMENT.finditer(text):
        entries.extend(_names_in(m))

    entry_defs = [(n, functions[n]) for n in dict.fromkeys(entries)
                  if n in functions]
    if not entry_defs or not shared:
        return []

    shared_set = frozenset(shared)
    instrumented = frozenset(n for n, _ in entry_defs)
    diags: list[Diagnostic] = []
    for name, fdef in entry_defs:
        linter = _FunctionLinter(shared_set, filename, name,
                                 helpers=functions,
                                 instrumented=instrumented)
        diags.extend(linter.lint(fdef))

    if spec:
        diags.extend(_spec_relevance_python(
            spec, shared_set, [f for _, f in entry_defs], functions,
            instrumented, filename))
    return diags


def _spec_relevance_python(
    spec: str,
    shared: frozenset[str],
    entry_defs: list[ast.FunctionDef],
    functions: dict[str, ast.FunctionDef],
    instrumented: frozenset[str],
    filename: str,
) -> list[Diagnostic]:
    """SC113: instrumented variables outside the spec's relevant slice."""
    analyzed = list(entry_defs) + [
        f for n, f in functions.items() if n not in instrumented]
    flows = python_flows(analyzed, shared)
    result = close_slice(spec_variables(spec), flows, shared=shared)
    diags = []
    for var in sorted(result.irrelevant):
        node = _first_write_of(var, entry_defs) or entry_defs[0]
        diags.append(Diagnostic(
            code="SC113",
            message=(f"shared variable {var!r} is instrumented but not in "
                     f"the specification's relevant slice "
                     f"{sorted(result.relevant)}; slice with "
                     f"relevance=<slice>.predicate()"),
            file=filename, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1, symbol=var))
    return diags


def _first_write_of(var: str, defs: list[ast.FunctionDef]):
    for fdef in defs:
        for node in ast.walk(fdef):
            if isinstance(node, ast.Name) and node.id == var \
                    and isinstance(node.ctx, ast.Store):
                return node
    return None


# ---------------------------------------------------------------------------
# MiniLang analysis
# ---------------------------------------------------------------------------


def lint_minilang_source(
    text: str,
    filename: str = "<minilang>",
    spec: Optional[str] = None,
) -> list[Diagnostic]:
    """SC2xx checks over a MiniLang source: parse errors, undeclared
    names, local-shadows-shared, and (with a spec) slice membership."""
    from ..lang.ast import (
        Assign, Binary, Block, If, LocalDecl, Name, Unary, While,
    )
    from ..lang.parser import MiniLangError, parse_source

    try:
        program = parse_source(text, filename=filename)
    except MiniLangError as exc:
        return [Diagnostic(
            code="SC200", message=str(exc), file=filename,
            line=exc.line or 1, col=exc.col or 1)]

    shared = frozenset(program.shared_names())
    diags: list[Diagnostic] = []

    def expr_names(e):
        if isinstance(e, Name):
            yield e
        elif isinstance(e, Unary):
            yield from expr_names(e.operand)
        elif isinstance(e, Binary):
            yield from expr_names(e.left)
            yield from expr_names(e.right)

    def span(node) -> tuple[int, int]:
        return (getattr(node, "line", None) or 1,
                getattr(node, "col", None) or 1)

    for thread in program.threads:
        locals_seen: set[str] = set()

        def walk(stmts):
            for s in stmts:
                if isinstance(s, LocalDecl):
                    line, col = span(s)
                    if s.name in shared:
                        diags.append(Diagnostic(
                            code="SC202",
                            message=(f"local {s.name!r} shadows the shared "
                                     f"variable {s.name!r}"),
                            file=filename, line=line, col=col,
                            symbol=s.name, function=thread.name))
                    locals_seen.add(s.name)
                    check_expr(s.value)
                elif isinstance(s, Assign):
                    line, col = span(s)
                    if s.target not in shared and s.target not in locals_seen:
                        diags.append(Diagnostic(
                            code="SC201",
                            message=(f"assignment to undeclared variable "
                                     f"{s.target!r}"),
                            file=filename, line=line, col=col,
                            symbol=s.target, function=thread.name))
                    check_expr(s.value)
                elif isinstance(s, If):
                    check_expr(s.cond)
                    walk(s.then.statements)
                    if s.orelse is not None:
                        walk(s.orelse.statements)
                elif isinstance(s, While):
                    check_expr(s.cond)
                    walk(s.body.statements)
                elif isinstance(s, Block):
                    walk(s.statements)

        def check_expr(e):
            for name in expr_names(e):
                if name.ident not in shared and name.ident not in locals_seen:
                    line, col = span(name)
                    diags.append(Diagnostic(
                        code="SC201",
                        message=(f"use of undeclared variable "
                                 f"{name.ident!r}"),
                        file=filename, line=line, col=col,
                        symbol=name.ident, function=thread.name))

        walk(thread.body.statements)

    if spec:
        flows = minilang_flows(program)
        result = close_slice(spec_variables(spec), flows, shared=shared)
        for var in sorted(result.irrelevant):
            diags.append(Diagnostic(
                code="SC203",
                message=(f"shared variable {var!r} is not in the "
                         f"specification's relevant slice "
                         f"{sorted(result.relevant)}"),
                file=filename, line=1, col=1, symbol=var))
    return diags


# ---------------------------------------------------------------------------
# File / path front door
# ---------------------------------------------------------------------------


def lint_path(path, spec: Optional[str] = None) -> list[Diagnostic]:
    """Lint one ``.py`` or ``.ml`` file."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".ml":
        return lint_minilang_source(text, filename=str(p), spec=spec)
    return lint_python_source(text, filename=str(p), spec=spec)


def lint_paths(paths: Iterable, spec: Optional[str] = None) -> LintReport:
    """Lint files and directories (recursing for ``*.py`` and ``*.ml``)."""
    from pathlib import Path

    report = LintReport()
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
            files.extend(sorted(p.rglob("*.ml")))
        else:
            files.append(p)
    for f in files:
        report.add_file(str(f))
        report.extend(lint_path(f, spec=spec))
    return report
