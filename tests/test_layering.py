"""Package layering, checked statically over every module's ``import``
statements.

* The streaming stack never imports the offline analyses.
  ``repro.analysis`` (``predict``, ``detect``, the race/deadlock/atomicity
  reports) is built *on* the engines — ``predict`` runs an ``LtlEngine``
  on the analysis bus — so an import back from the streaming layers would
  be a cycle.
* There is one wire to the observer: the reliable transport and the
  server/fleet stack behind it.  No other module opens sockets.
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
