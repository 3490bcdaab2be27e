"""No module imports a name it never uses or keeps a private name nothing reads.

A deletion that leaves its imports or helpers behind still passes every
other test. This walks each module's syntax tree, as
``test_dependencies.py`` does. ``__init__.py`` is exempt: its imports are
the package's exports.
"""

import ast

from test_dependencies import PACKAGE


def bound_imports(tree: ast.Module):
    """(line, name) of every name an import in ``tree`` binds, nested imports included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]


def read_names(node: ast.AST) -> set:
    """Every name ``node`` reads: loaded names, attributes and names imported from elsewhere."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def defined_names(statement: ast.stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound_imports(tree) if name not in used]


def unread_private_names(sources: dict) -> list:
    """(module, name) of each module-level ``_name`` no statement but its own definition reads.

    ``sources`` maps module names to their source; a read anywhere in
    them counts, so a helper one module defines and another imports is read.
    """
    statements = [(module, statement, read_names(statement)) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    return [(module, name) for module, statement, _ in statements for name in defined_names(statement)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in reads for _, other, reads in statements if other is not statement)]


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def test_no_module_imports_a_name_it_never_uses():
    sources = _package_sources()
    assert sources
    assert {module: found for module, source in sources.items() if (found := unused_imports(source))} == {}


def test_every_private_module_level_name_is_read():
    assert unread_private_names(_package_sources()) == []


def test_the_walks_find_an_unused_import_and_a_private_name_only_it_reads():
    source = ("from __future__ import annotations\n"
              "import json, math\n"
              "from .analysis import _check_keys as check, _unique_keys\n"
              "_LIMIT = 3\n"
              "def _nested(items):\n"
              "    return [_nested(x) for x in items]\n"
              "def _used():\n"
              "    return math.inf, check\n"
              "def public():\n"
              "    return _used()\n")
    assert unused_imports(source) == [(2, "json"), (3, "_unique_keys")]
    assert unread_private_names({"m": source}) == [("m", "_LIMIT"), ("m", "_nested")]
    assert unread_private_names({"m": source, "n": "from .m import _LIMIT\n"}) == [("m", "_nested")]
