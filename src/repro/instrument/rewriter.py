"""AST-level automatic instrumentation (the paper's code-instrumentation
route, transposed from JVM bytecode to Python source).

JMPaX rewrites bytecode so that "whenever a shared variable is accessed the
MVC algorithm A is inserted" (§4.1).  Python functions carry their source,
so the equivalent here is an :class:`ast.NodeTransformer` that redirects
every read/write of the *declared shared names* to the instrumented
runtime::

    def worker():
        c = c + 1          # 'c' declared shared

becomes, in effect::

    def worker():
        __rt__.write('c', __rt__.read('c') + 1)

Everything else — local variables, control flow, calls — is untouched, so
the transformed function computes the same values while emitting the event
stream Algorithm A needs.  Like the bytecode instrumentor, this needs no
cooperation from the function's *callers*; unlike it, it does need the
function's own source (``inspect.getsource``), an accepted substitution
documented in DESIGN.md.

Supported shared-name syntax: plain reads, ``x = e``, chained/multiple
assignment targets, ``x: ann = e``, ``x += e`` (and all augmented
operators), reads inside any expression — including inside lambdas, nested
``def``s and comprehension *bodies*, whose accesses run against the same
runtime.  Constructs that would *rebind* a shared name to a new local
scope (comprehension targets, lambda/def parameters, ``:=`` targets,
``with``/``except``/``import`` aliases), plus ``del x``, ``global x``,
for-targets and starred/tuple-destructuring writes, are rejected with a
precise ``file:line:col`` :class:`InstrumentError` rather than silently
miscompiled — each rejection matches an SC1xx diagnostic that
``repro lint`` reports for the same construct.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Iterable, Optional

from .runtime import InstrumentedRuntime

__all__ = ["instrument_function", "InstrumentError", "RUNTIME_NAME"]

RUNTIME_NAME = "__rt__"


class InstrumentError(ValueError):
    """The function uses a shared name in a way the rewriter cannot handle.

    Carries a ``file:line:col`` span when the offending construct is known,
    rendered as a prefix in the repository's shared span format.
    """

    def __init__(self, message: str, *,
                 filename: Optional[str] = None,
                 line: Optional[int] = None,
                 col: Optional[int] = None):
        self.filename = filename
        self.line = line
        self.col = col
        self.problem = message
        if filename is not None and line is not None:
            super().__init__(f"{filename}:{line}:{col or 1}: {message}")
        else:
            super().__init__(message)


_AUG_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
    ast.LShift: "<<",
    ast.RShift: ">>",
}


class _Rewriter(ast.NodeTransformer):
    def __init__(self, shared: frozenset[str],
                 filename: Optional[str] = None):
        self.shared = shared
        self.filename = filename

    def _error(self, node: ast.AST, message: str) -> InstrumentError:
        return InstrumentError(
            message, filename=self.filename,
            line=getattr(node, "lineno", None),
            col=getattr(node, "col_offset", -1) + 1 or None)

    def _read_call(self, name: str) -> ast.Call:
        return ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=RUNTIME_NAME, ctx=ast.Load()),
                attr="read",
                ctx=ast.Load(),
            ),
            args=[ast.Constant(name)],
            keywords=[],
        )

    def _write_call(self, name: str, value: ast.expr) -> ast.Call:
        return ast.Call(
            func=ast.Attribute(
                value=ast.Name(id=RUNTIME_NAME, ctx=ast.Load()),
                attr="write",
                ctx=ast.Load(),
            ),
            args=[ast.Constant(name), value],
            keywords=[],
        )

    # -- reads ---------------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id not in self.shared:
            return node
        if isinstance(node.ctx, ast.Load):
            return self._read_call(node.id)
        if isinstance(node.ctx, ast.Del):
            raise self._error(
                node, f"cannot delete shared variable {node.id!r}")
        # Store context is handled by the enclosing Assign/AugAssign/For.
        return node

    # -- writes ----------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        value = self.visit(node.value)
        shared_targets: list[str] = []
        plain_targets: list[ast.expr] = []
        for tgt in node.targets:
            if isinstance(tgt, ast.Name) and tgt.id in self.shared:
                shared_targets.append(tgt.id)
            else:
                self._reject_shared_in(tgt)
                plain_targets.append(self.visit(tgt))
        if not shared_targets:
            node.value = value
            node.targets = plain_targets
            return node
        # x = y = expr  with shared x: evaluate once into a temp, write the
        # shared ones via the runtime, assign the plain ones normally.
        tmp = ast.Name(id="__shared_tmp__", ctx=ast.Store())
        stmts: list[ast.stmt] = [
            ast.Assign(targets=[tmp], value=value)
        ]
        for name in shared_targets:
            stmts.append(
                ast.Expr(value=self._write_call(
                    name, ast.Name(id="__shared_tmp__", ctx=ast.Load())))
            )
        for tgt in plain_targets:
            stmts.append(
                ast.Assign(targets=[tgt],
                           value=ast.Name(id="__shared_tmp__", ctx=ast.Load()))
            )
        return stmts  # type: ignore[return-value]

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AST:
        if isinstance(node.target, ast.Name) and node.target.id in self.shared:
            if node.value is None:
                # `x: int` alone neither reads nor writes; drop it.
                return ast.Pass()
            return ast.Expr(
                value=self._write_call(node.target.id, self.visit(node.value)))
        self._reject_shared_in(node.target)
        if node.value is not None:
            node.value = self.visit(node.value)
        return node

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.AST:
        if isinstance(node.target, ast.Name) and node.target.id in self.shared:
            if type(node.op) not in _AUG_OPS:
                raise self._error(
                    node,
                    f"augmented operator {type(node.op).__name__} unsupported "
                    f"on shared variable {node.target.id!r}"
                )
            read = self._read_call(node.target.id)
            new_value = ast.BinOp(left=read, op=node.op, right=self.visit(node.value))
            return ast.Expr(
                value=self._write_call(node.target.id, new_value))
        self._reject_shared_in(node.target)
        node.value = self.visit(node.value)
        return node

    def visit_NamedExpr(self, node: ast.NamedExpr) -> ast.AST:
        if node.target.id in self.shared:
            raise self._error(
                node,
                f"assignment expression (':=') targets shared variable "
                f"{node.target.id!r}; unsupported write pattern"
            )
        node.value = self.visit(node.value)
        return node

    def visit_For(self, node: ast.For) -> ast.AST:
        self._reject_shared_in(node.target)
        self.generic_visit(node)
        return node

    def visit_Global(self, node: ast.Global) -> ast.AST:
        bad = [n for n in node.names if n in self.shared]
        if bad:
            raise self._error(
                node,
                f"'global' declaration of shared variables {bad} — shared "
                f"variables live in the runtime, not module globals"
            )
        return node

    visit_Nonlocal = visit_Global  # type: ignore[assignment]

    # -- scope-rebinding constructs ------------------------------------------

    def _check_params(self, node, kind: str) -> None:
        args = node.args
        every = (args.posonlyargs + args.args + args.kwonlyargs
                 + ([args.vararg] if args.vararg else [])
                 + ([args.kwarg] if args.kwarg else []))
        for a in every:
            if a.arg in self.shared:
                raise self._error(
                    a,
                    f"{kind} parameter {a.arg!r} shadows the shared variable "
                    f"{a.arg!r}; reads of the parameter would be miscompiled "
                    f"into runtime reads"
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        self._check_params(node, "nested function")
        self.generic_visit(node)
        return node

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        self._check_params(node, "nested function")
        self.generic_visit(node)
        return node

    def visit_Lambda(self, node: ast.Lambda) -> ast.AST:
        self._check_params(node, "lambda")
        self.generic_visit(node)
        return node

    def _visit_comprehension(self, node) -> ast.AST:
        for gen in node.generators:
            self._reject_shared_in(
                gen.target,
                reason="comprehension target rebinds shared variable")
        self.generic_visit(node)
        return node

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_With(self, node: ast.With) -> ast.AST:
        for item in node.items:
            if item.optional_vars is not None:
                self._reject_shared_in(
                    item.optional_vars,
                    reason="'with ... as' rebinds shared variable")
        self.generic_visit(node)
        return node

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> ast.AST:
        if node.name is not None and node.name in self.shared:
            raise self._error(
                node,
                f"'except ... as {node.name}' rebinds shared variable "
                f"{node.name!r}; unsupported write pattern"
            )
        self.generic_visit(node)
        return node

    def _check_import(self, node) -> ast.AST:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in self.shared:
                raise self._error(
                    node,
                    f"import binds {bound!r}, shadowing a shared variable; "
                    f"unsupported write pattern"
                )
        return node

    visit_Import = _check_import
    visit_ImportFrom = _check_import

    def _reject_shared_in(self, target: ast.expr,
                          reason: Optional[str] = None) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and sub.id in self.shared:
                detail = f"{reason}: " if reason else ""
                raise self._error(
                    sub,
                    f"{detail}unsupported write pattern to shared variable "
                    f"{sub.id!r} (only 'x = e' and 'x op= e' are instrumented)"
                )


def instrument_function(
    fn: Callable,
    shared: Iterable[str],
    runtime: InstrumentedRuntime,
) -> Callable:
    """Return a copy of ``fn`` whose accesses to ``shared`` names run through
    ``runtime`` (and hence through Algorithm A).

    The function's signature is preserved; its body is re-parsed from
    source, rewritten, recompiled, and bound to the same globals plus the
    injected runtime.  Rejections and rewrite errors carry the function's
    real ``file:line:col`` span.

    Spec-relevance slicing is the runtime's job, not the rewrite's: build
    ``runtime`` with ``relevance=sl.predicate()``, where ``sl`` comes from
    :func:`repro.staticcheck.slice_python_functions`.
    """
    shared_set = frozenset(shared)
    undeclared = [v for v in shared_set if v not in runtime.initial_store]
    if undeclared:
        raise InstrumentError(
            f"shared names {sorted(undeclared)} are not declared in the runtime"
        )
    try:
        lines, first_line = inspect.getsourcelines(fn)
        src = textwrap.dedent("".join(lines))
        filename = inspect.getsourcefile(fn) or f"<instrumented {fn.__name__}>"
    except (OSError, TypeError) as exc:
        raise InstrumentError(
            f"cannot fetch source of {fn!r} (lambdas and C functions are "
            f"not instrumentable): {exc}"
        ) from exc
    tree = ast.parse(src)
    if first_line > 1:
        # Restore the function's real line numbers so InstrumentError spans
        # and tracebacks point into the original file.
        ast.increment_lineno(tree, first_line - 1)
    fdef = tree.body[0]
    if not isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise InstrumentError(f"{fn.__name__} is not a plain function")
    _reject_shared_in_signature(fdef, shared_set, filename)
    fdef.decorator_list = []  # decorators already applied to the original
    new_tree = _Rewriter(shared_set, filename=filename).visit(tree)
    ast.fix_missing_locations(new_tree)
    code = compile(new_tree, filename=filename, mode="exec")
    namespace = dict(fn.__globals__)
    namespace[RUNTIME_NAME] = runtime
    exec(code, namespace)
    new_fn = namespace[fdef.name]
    new_fn.__instrumented_shared__ = shared_set
    return new_fn


def _reject_shared_in_signature(
    fdef, shared: frozenset[str], filename: str
) -> None:
    """The entry function's own signature must not involve shared names:
    parameters would shadow them (every body read miscompiles into a
    runtime read) and defaults evaluate at instrument time, outside the
    monitored execution."""
    args = fdef.args
    every = (args.posonlyargs + args.args + args.kwonlyargs
             + ([args.vararg] if args.vararg else [])
             + ([args.kwarg] if args.kwarg else []))
    for a in every:
        if a.arg in shared:
            raise InstrumentError(
                f"parameter {a.arg!r} of {fdef.name!r} shadows the shared "
                f"variable {a.arg!r}",
                filename=filename, line=a.lineno, col=a.col_offset + 1)
    for default in list(args.defaults) + [d for d in args.kw_defaults
                                          if d is not None]:
        for sub in ast.walk(default):
            if isinstance(sub, ast.Name) and sub.id in shared:
                raise InstrumentError(
                    f"shared variable {sub.id!r} read in a parameter default "
                    f"of {fdef.name!r}; defaults evaluate at instrument "
                    f"time, outside the monitored execution",
                    filename=filename, line=sub.lineno, col=sub.col_offset + 1)
