"""Every module-level import of a package module is used in that module."""

import ast
from pathlib import Path

import coversmooth

_SRC = Path(coversmooth.__file__).resolve().parent


def _imported(tree):
    """Names the module's top-level imports bind, except __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(_imported(tree)) - set(_used(tree))
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
