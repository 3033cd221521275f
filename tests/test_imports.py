"""Import hygiene: every name a tonelab module or test file imports is
referenced in that file, and the test oracles take nothing from the
solver."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tonelab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_reported():
    source = "import os.path\nfrom math import pi, tau as t2\nimport json as js\nprint(pi, js)\n"
    assert unused_imports(source) == ["os (line 1)", "t2 (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def solver_names(source: str) -> list[str]:
    """Names that import statements in ``source`` take from tonelab.solver,
    directly or through a package that re-exports them."""
    import importlib

    tree = ast.parse(source)
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name.startswith("tonelab.solver")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tonelab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                if getattr(obj, "__name__", None) == "tonelab.solver" or (
                    getattr(obj, "__module__", None) == "tonelab.solver"
                ):
                    taken.append(alias.name)
    return taken


def test_solver_names_are_reported():
    source = (
        "from tonelab.graphs import Graph, build_star\n"
        "from tonelab import solver, verify, tau_exact\n"
        "from tonelab.solver import _Meter\n"
        "import tonelab.solver\n"
    )
    assert solver_names(source) == ["solver", "tau_exact", "_Meter", "tonelab.solver"]


def test_oracles_import_nothing_from_the_solver():
    """The brute-force oracle judges the solver's pruning, so it shares no
    code with it."""
    oracles = TESTS / "oracles.py"
    assert solver_names(oracles.read_text()) == []
