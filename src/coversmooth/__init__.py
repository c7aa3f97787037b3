"""Smoothing of pushforward potentials along branched coverings."""

from .errors import (
    CoverSmoothError,
    CoverageError,
    DomainError,
    ParameterError,
    ScenarioError,
)
from .geometry import (
    Annulus,
    Complement,
    Disk,
    Grid,
    Intersection,
    LevelRegion,
    Polydisk,
    ScalarField,
    dump_field_csv,
    halton_sample,
    mass_integral,
    sample_grid,
    sample_slice_grid,
)
from .psh import (
    laplacian_sup,
    min_levi_eigenvalue,
    mollifier_kernel,
    mollify,
    regmax_kernel,
)
from .covers import (
    ChartPair,
    IdentityCover,
    PowerCover,
    VietaCover,
    pushforward,
)
from .cocycle import (
    ChartOverlap,
    CocycleChart,
    CurvePatch,
    KahlerCocycle,
    curve_mass,
    validate_cocycle,
)
from .smoothing import (
    GlueStep,
    NestedOpens,
    SmoothingParams,
    global_glue,
    local_smooth,
    smooth_pushforward,
)
from .scenarios import build_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CoverSmoothError", "CoverageError", "DomainError", "ParameterError",
    "ScenarioError",
    "Annulus", "Complement", "Disk", "Grid", "Intersection", "LevelRegion",
    "Polydisk", "ScalarField", "dump_field_csv",
    "halton_sample", "mass_integral", "sample_grid", "sample_slice_grid",
    "laplacian_sup", "min_levi_eigenvalue", "mollifier_kernel", "mollify",
    "regmax_kernel",
    "ChartPair", "IdentityCover", "PowerCover", "VietaCover",
    "pushforward",
    "ChartOverlap", "CocycleChart", "CurvePatch", "KahlerCocycle",
    "curve_mass", "validate_cocycle",
    "GlueStep", "NestedOpens", "SmoothingParams", "global_glue",
    "local_smooth", "smooth_pushforward",
    "build_scenario", "run_scenario",
]
