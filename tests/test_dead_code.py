"""Every module-level function and class of the package has a caller: its
name is referenced somewhere in the package outside its own definition,
or the package exports it in __all__."""

import ast
from pathlib import Path

import coversmooth

_SRC = Path(coversmooth.__file__).resolve().parent


def _referenced(node) -> set:
    """The names and attribute names read anywhere under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _defined(tree):
    """The module-level function and class definitions of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_every_module_level_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(_SRC.glob("*.py"))}
    refs = {name: _referenced(tree) for name, tree in trees.items()}
    exported = set(coversmooth.__all__)
    unreferenced, seen = [], 0
    for module, tree in trees.items():
        for node in _defined(tree):
            seen += 1
            others = set().union(*(r for m, r in refs.items() if m != module))
            own = set().union(*(_referenced(n) for n in tree.body if n is not node))
            if node.name not in exported | others | own:
                unreferenced.append(f"{module}.{node.name}")
    assert seen > 100
    assert unreferenced == []
