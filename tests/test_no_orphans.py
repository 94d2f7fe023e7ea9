"""No orphaned code in the package: every import is used, and every private
module-level name is used somewhere in the package besides its definition.

The checks read the source with the standard library's `ast`, so they need
no linter. `__init__.py`'s star imports are the package's re-exports, and
`from __future__` imports are directives, not names; both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "roughcm").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _used_names(nodes):
    """Names read below `nodes`: the roots of expressions and annotations."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                yield sub.id


def _bound_names(statement):
    """The private module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_the_package_sources_are_found():
    assert "report.py" in TREES and "__init__.py" in TREES


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if alias.name != "*"
    ]
    used = set(_used_names([tree]))
    assert [n for n in imported if n not in used] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_name_is_used_outside_its_definition(name):
    unused = []
    for statement in TREES[name].body:
        for private in _bound_names(statement):
            elsewhere = [
                node
                for module, tree in TREES.items()
                for node in tree.body
                if not (module == name and node is statement)
            ]
            if private not in set(_used_names(elsewhere)):
                unused.append(private)
    assert unused == []
