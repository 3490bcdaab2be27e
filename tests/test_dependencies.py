"""numpy is the only runtime dependency.

The test tools (pytest, hypothesis, jsonschema) are installed wherever the
tests run, so an import of one of them in the package would pass the tests
and still break a plain install. This walks every module's syntax tree
instead of importing it.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankexplain"
ALLOWED = {"numpy", "rankexplain"}


def absolute_imports(source: str):
    """(line, module) of every absolute import in ``source``, nested ones included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def stray_imports(source: str) -> list:
    return [(line, module) for line, module in absolute_imports(source)
            if module.partition(".")[0] not in sys.stdlib_module_names | ALLOWED]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    stray = {path.name: found for path in modules
             if (found := stray_imports(path.read_text(encoding="utf-8")))}
    assert stray == {}


def test_the_walk_finds_nested_and_from_imports():
    source = ("import os, numpy.linalg\n"
              "from . import rankers\n"
              "from rankexplain.rng import XorShift64Star\n"
              "def f():\n"
              "    import pytest\n"
              "    from hypothesis import given\n")
    assert stray_imports(source) == [(5, "pytest"), (6, "hypothesis")]
