"""Package layering: the streaming stack never imports the offline analyses.

``repro.analysis`` (``predict``, ``detect``, the race/deadlock/atomicity
reports) is built *on* the engines — ``predict`` runs an ``LtlEngine`` on
the analysis bus — so an import back from the streaming layers would be a
cycle.  Checked statically, over every module's ``import`` statements.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STREAMING = ("engines", "observer", "server", "store", "fleet")
FORBIDDEN = "repro.analysis"


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
