"""Every package error is raised by the package and exercised by a test."""

import ast
from pathlib import Path

import coversmooth

_SRC = Path(coversmooth.__file__).resolve().parent
_TESTS = Path(__file__).resolve().parent


def _trees(folder):
    return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(folder.glob("*.py"))]


def _names(node):
    """Identifiers that node's subtree refers to (names and attributes)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_error_class_is_raised_in_the_package_and_named_by_a_test():
    module = ast.parse((_SRC / "errors.py").read_text())
    errors = {node.name for node in module.body
              if isinstance(node, ast.ClassDef)} - {"CoverSmoothError"}
    assert errors
    raised = {name for tree in _trees(_SRC) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None
              for name in _names(node.exc)}
    tested = {name for tree in _trees(_TESTS) for name in _names(tree)}
    assert sorted(errors - raised) == []
    assert sorted(errors - tested) == []
