"""Tooling guards: no module of the package imports a name it never uses, and
every exception type the package defines is raised somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roughmax"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression ever reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unraised_errors(errors_source: str, sources) -> list:
    """Classes defined in ``errors_source``, the base RoughMaxError aside, that
    no ``raise`` statement in ``sources`` names."""
    defined = [n.name for n in ast.parse(errors_source).body
               if isinstance(n, ast.ClassDef) and n.name != "RoughMaxError"]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in defined if name not in raised]


def test_guard_flags_an_unused_import():
    src = "import math\nimport sys\nfrom os import path, sep\nprint(sys.argv, sep)\n"
    assert unused_imports(src) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_guard_flags_an_error_nothing_raises():
    errors = ("class RoughMaxError(Exception):\n    pass\n"
              "class AError(RoughMaxError):\n    pass\n"
              "class BError(RoughMaxError):\n    pass\n"
              "class CError(RoughMaxError):\n    pass\n"
              "NUMERIC = (AError, BError, CError)\n")
    users = ["from .errors import AError, BError, CError\n"
             "def f(x):\n"
             "    if x:\n"
             "        raise AError('a')\n"
             "    try:\n"
             "        pass\n"
             "    except CError:\n"
             "        raise\n",
             "from . import errors\n"
             "def g():\n"
             "    raise errors.BError\n"]
    assert unraised_errors(errors, users) == ["CError"]
    assert unraised_errors(errors, users[:1]) == ["BError", "CError"]


def test_every_error_type_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, sources) == []
