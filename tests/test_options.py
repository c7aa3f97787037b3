"""Every settable value of the package is pinned: each defaulted parameter
and each defaulted dataclass field under src/coversmooth.  A new one fails
here until its author adds it to the pin, so every new option shows up in
review; one whose default no caller overrides belongs in a constant."""

import ast
from pathlib import Path

import coversmooth

_SRC = Path(coversmooth.__file__).resolve().parent

# module.function(parameter) and module.Class.field; closure binders such
# as _ov=ov, which freeze a loop variable, start with "_" and are left out
_PINNED = {
    "cli._require_writable(is_dir)",
    "cocycle.KahlerCocycle.overlaps",
    "covers.SymmetricSum.__init__(name)",
    "errors.ParameterError.__init__(detail)",
    "geometry.LevelRegion.grad_scale",
    "geometry.Grid.__init__(origin)",
    "geometry.ScalarField.name",
    "geometry.ScalarField.meta",
    "geometry.ScalarField.eval_many(check)",
    # the same flag on the lattice field's override, which tests the
    # snapped sites whatever it says; not a new setting
    "geometry._LatticeField.eval_many(check)",
    "scenarios.Scenario.X1",
    "scenarios.Scenario.X2",
    "scenarios.build_scenario(overrides)",
    "scenarios._check(kind)",
    "scenarios.Lattice.free_axis",
    "scenarios.Lattice.basepoint",
    "scenarios.SupGap.name",
    "scenarios.SupGap.samples",
    "scenarios.SupGap.tol",
    "scenarios.SupGap.kind",
    "scenarios.DiskMass.slice_s",
    "scenarios.run_scenario(dump_dir)",
    "scenarios.run_scenario(timings)",
    # the column fields' cells' and the radial profiles' ufunc-style output
    # buffer (covers.ColumnField, covers.RadialField), which mollify's
    # column branch passes; not a setting
    "scenarios._abs_sq_cell(out)",
    "scenarios._log1p_abs_sq_cell(out)",
    "scenarios._abs_sq_profile(out)",
    "scenarios._build_s4.phi_near(out)",
    "covers.RadialField._cell(out)",
    "covers._square_root_profile.square_root_profile(out)",
    "smoothing.local_smooth(gate_region)",
    "smoothing.GlueStep.gate_region",
    "smoothing.smooth_pushforward(X1)",
    "smoothing.smooth_pushforward(X2)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable(node, scope: str):
    """Defaulted parameters and dataclass fields under node, qualified by
    scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                for stmt in child.body:
                    if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                            and isinstance(stmt.target, ast.Name)):
                        yield f"{scope}.{child.name}.{stmt.target.id}"
            yield from _settable(child, f"{scope}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for arg in defaulted:
                if not arg.arg.startswith("_"):
                    yield f"{scope}.{child.name}({arg.arg})"
            yield from _settable(child, f"{scope}.{child.name}")
        else:
            yield from _settable(child, scope)


def test_every_settable_value_is_pinned():
    found = []
    for path in sorted(_SRC.glob("*.py")):
        found += _settable(ast.parse(path.read_text(), filename=str(path)),
                           path.stem)
    assert len(found) == len(set(found))
    assert set(found) == _PINNED
