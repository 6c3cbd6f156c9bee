"""Package layering, checked statically over every module's ``import``
statements.

* The streaming stack never imports the offline analyses.
  ``repro.analysis`` (``predict``, ``detect``, the race/deadlock/atomicity
  reports) is built *on* the engines — ``predict`` runs an ``LtlEngine``
  on the analysis bus — so an import back from the streaming layers would
  be a cycle.
* There is one wire to the observer: the reliable transport and the
  server/fleet stack behind it.  No other module opens sockets.
* Every connection socket on that wire has Nagle's algorithm off: each
  ``socket.create_connection(...)`` and ``.accept()`` in ``src/`` hands
  its socket to ``set_nodelay`` in the same function.
* A served session's observer has one recipe: inside ``repro/server/``
  only ``build_observer`` calls ``Observer(...)``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STREAMING = ("engines", "observer", "server", "store", "fleet")
FORBIDDEN = "repro.analysis"
#: The only modules (or packages, ending in ``/``) that may import socket.
SOCKET_OWNERS = ("repro/observer/reliable.py", "repro/server/",
                 "repro/fleet/", "repro/cli.py")


def _imported_modules(path: Path):
    """Absolute names of every module an ``import`` in ``path`` names."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    package = module.rsplit(".", 1)[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:  # ``from .. import analysis``
                yield node.lineno, f"{base}.{alias.name}"


def _offenders(layer: str) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for line, name in _imported_modules(path)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    ]


@pytest.mark.parametrize("layer", STREAMING)
def test_streaming_layer_does_not_import_analysis(layer):
    assert _offenders(layer) == []


def test_checker_resolves_relative_imports():
    """The resolver is not vacuous: the CLI's ``from .analysis import``
    and the LTL engine's ``from ..lattice.levels import`` are found."""
    cli = {name for _, name in _imported_modules(SRC / "repro" / "cli.py")}
    assert "repro.analysis" in cli
    ltl = {name for _, name in
           _imported_modules(SRC / "repro" / "engines" / "ltl.py")}
    assert "repro.lattice.levels.LevelByLevelBuilder" in ltl


def _socket_importers() -> list[str]:
    return sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if any(name == "socket" for _, name in _imported_modules(path)))


def test_only_the_wire_imports_socket():
    importers = _socket_importers()
    # not vacuous: the wire's own modules are found
    assert {"repro/observer/reliable.py", "repro/server/daemon.py",
            "repro/cli.py"} <= set(importers)
    offenders = [path for path in importers
                 if not any(path == owner or (owner.endswith("/")
                                              and path.startswith(owner))
                            for owner in SOCKET_OWNERS)]
    assert offenders == []


#: The helper that turns Nagle off (``repro.server.protocol``).
NODELAY_HELPER = "set_nodelay"


def _own_nodes(func: ast.AST):
    """Every node of ``func``'s body, not descending into nested
    functions, lambdas or classes (those are checked on their own)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_socket_site(node: ast.AST) -> bool:
    """``socket.create_connection(...)`` or ``<listener>.accept()``."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr == "create_connection":
        return isinstance(node.func.value, ast.Name) \
            and node.func.value.id == "socket"
    return node.func.attr == "accept" and not node.args


def _bound_name(target: ast.AST):
    """``sock = ...`` -> ``sock``; ``conn, addr = ...`` -> ``conn``."""
    if isinstance(target, ast.Tuple) and target.elts:
        target = target.elts[0]
    return target.id if isinstance(target, ast.Name) else None


def _nodelay_sites(source: str, where: str) -> tuple[list, list]:
    """``(sites, offenders)`` of one module: every socket site as
    ``where:function``, and each site whose socket is never passed to
    the helper in the same function."""
    sites, offenders = [], []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(func))
        bound = {}
        for node in nodes:
            if isinstance(node, ast.Assign) and _is_socket_site(node.value):
                bound[id(node.value)] = _bound_name(node.targets[0])
            elif isinstance(node, ast.withitem) \
                    and _is_socket_site(node.context_expr) \
                    and node.optional_vars is not None:
                bound[id(node.context_expr)] = _bound_name(
                    node.optional_vars)
        helped = {
            node.args[0].id for node in nodes
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Name)
            and NODELAY_HELPER in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))}
        for node in nodes:
            if not _is_socket_site(node):
                continue
            sites.append(f"{where}:{func.name}")
            name = bound.get(id(node))
            if name is None or name not in helped:
                offenders.append(
                    f"{where}:{node.lineno} in {func.name}: socket "
                    f"{name or '(unbound)'} never passes through "
                    f"{NODELAY_HELPER}")
    return sites, offenders


def test_every_connection_socket_sets_nodelay():
    sites, offenders = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        found, bad = _nodelay_sites(path.read_text(encoding="utf-8"),
                                        str(path.relative_to(SRC)))
        sites += found
        offenders += bad
    # not vacuous: the four served-path sockets are found
    assert sorted(sites) == ["repro/fleet/router.py:_accept_loop",
                             "repro/fleet/router.py:_shard_handshake",
                             "repro/server/client.py:_handshake",
                             "repro/server/daemon.py:_accept_loop"]
    assert offenders == []


@pytest.mark.parametrize("body, flagged", [
    ("sock = socket.create_connection(addr)\n    set_nodelay(sock)", False),
    ("conn, addr = srv.accept()\n    protocol.set_nodelay(conn)", False),
    ("with socket.create_connection(addr) as s:\n        set_nodelay(s)",
     False),
    ("sock = socket.create_connection(addr)", True),
    ("conn, addr = srv.accept()\n    set_nodelay(addr)", True),
    ("return socket.create_connection(addr)", True),
    ("sock = socket.create_connection(addr)\n"
     "    def later():\n        set_nodelay(sock)", True),
])
def test_nodelay_check_flags_a_bare_socket(body, flagged):
    _, offenders = _nodelay_sites(f"def f(srv, addr):\n    {body}\n",
                                      "m.py")
    assert bool(offenders) == flagged


def _observer_sites(source: str, where: str) -> list[str]:
    """``where:scope`` for every ``Observer(...)`` call in a module, the
    scope being the innermost function, lambda or class around it."""
    tree = ast.parse(source)
    scopes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef))]
    names = {id(tree): "<module>"}
    return [
        f"{where}:{names.get(id(scope)) or getattr(scope, 'name', '<lambda>')}"
        for scope in scopes for node in _own_nodes(scope)
        if isinstance(node, ast.Call) and "Observer" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_served_observers_have_one_recipe():
    sites = []
    for path in sorted((SRC / "repro" / "server").rglob("*.py")):
        sites += _observer_sites(path.read_text(encoding="utf-8"),
                                 str(path.relative_to(SRC)))
    # exactly one site, so the check cannot pass by finding none
    assert sites == ["repro/server/session.py:build_observer"]


@pytest.mark.parametrize("source, found", [
    ("def build_observer(h):\n    return Observer(1, {})\n",
     ["m.py:build_observer"]),
    ("obs = observer.Observer(1, {})\n", ["m.py:<module>"]),
    ("class S:\n    def __init__(self):\n        self.o = Observer(1, {})\n",
     ["m.py:__init__"]),
    ("make = lambda: Observer(1, {})\n", ["m.py:<lambda>"]),
    ("def f():\n    return ObserverHealth(), Observer\n", []),
])
def test_observer_check_finds_every_call(source, found):
    assert _observer_sites(source, "m.py") == found

