"""Shipped scenarios and their verification batteries.

Each scenario bundles a concrete cover, an upstairs potential cocycle, a
nested-triple smoothing schedule, and a battery of pass/fail checks: exact
agreement outside the working neighbourhood, grid Levi positivity at two
spacings, C2 refinement ratios across the non-smooth locus, and mass
conservation against closed-form oracles.

Checks are dicts {"name", "value", "tol", "pass", "kind"} with kind "le"
(value <= tol passes) or "ge".  Reports are plain JSON-able dicts and are
byte-reproducible: every sample set is a fixed Halton stream and every grid
is anchored the same way on every run, so identical configs give identical
floats.  Wall-clock timings therefore never go into the report; callers
that want them pass a `timings` dict which is filled per check name.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import CoverSmoothError, ScenarioError
from .geometry import (
    HALTON_START,
    Annulus,
    Complement,
    Disk,
    Domain,
    Grid,
    Intersection,
    LevelRegion,
    MappedRegion,
    Polydisk,
    ScalarField,
    as_points,
    dump_field_csv,
    halton_sample,
    mass_integral,
    sample_grid,
    sample_slice_grid,
)
from .covers import (
    ChartPair,
    IdentityCover,
    PowerCover,
    RadialField,
    SymmetricSum,
    VietaCover,
    discriminant_many,
)
from .cocycle import (
    ChartOverlap,
    CocycleChart,
    CurvePatch,
    Inversion,
    KahlerCocycle,
    SwapChart,
    curve_mass,
    validate_cocycle,
)
from .psh import (
    BUMP_INTEGRAL,
    MOLL_ORDER,
    REGMAX_ORDER,
    c2_ratio,
    laplacian_sup,
    min_levi_eigenvalue,
    mollifier_kernel,
)
from .smoothing import (
    GlueStep,
    NestedOpens,
    SmoothingParams,
    local_smooth,
    smooth_pushforward,
)

SCENARIO_IDS = ("S1", "S2", "S3", "S4")

# config keys a caller may override, in CLI flag order; n_radius and
# nprime_radius are disk radii for S1, S4 and sublevel thresholds for S2, S3
OVERRIDE_KEYS = ("h", "eps", "eta", "delta", "n_radius", "nprime_radius")
_DEFAULTS = {
    "S1": {"h": 0.01, "eps": 0.035, "delta": 5e-4, "eta": 1e-4,
           "n_radius": 0.6, "nprime_radius": 0.4},
    "S2": {"h": 3e-3, "eps": 5e-3, "delta": 1.4e-4, "eta": 3.5e-5,
           "n_radius": 1.15, "nprime_radius": 0.5},
    "S3": {"h": 3e-3, "eps": 7e-3, "delta": 1.4e-4, "eta": 5.6e-5,
           "n_radius": 1.15, "nprime_radius": 0.4},
    "S4": {"h": 5e-3, "eps": 0.02, "delta": 1.4e-4, "eta": 3.5e-5,
           "n_radius": 0.63, "nprime_radius": 0.5},
}

AGREE_SAMPLES = 10_000


@dataclass
class Scenario:
    scenario_id: str
    config: Dict[str, float]
    cover: Tuple[ChartPair, ...]
    upstairs: KahlerCocycle
    downstairs_overlaps: tuple
    steps: Tuple[GlueStep, ...]
    params: SmoothingParams
    battery: tuple  # ordered check specs, run by run_scenario
    # no scenario sets X1 or X2; bench/worker.py still reads and passes them
    X1: Optional[Domain] = None
    X2: Optional[Domain] = None


def scenario_defaults(scenario_id: str) -> Dict[str, float]:
    if scenario_id not in _DEFAULTS:
        raise ScenarioError(f"unknown scenario id: {scenario_id!r}")
    return dict(_DEFAULTS[scenario_id])


def build_scenario(scenario_id: str, overrides: Optional[dict] = None) -> Scenario:
    """Instantiate a shipped scenario, applying config overrides.

    Overridable keys: OVERRIDE_KEYS.  Shrinking n_radius alone drags
    nprime_radius down proportionally so the nesting stays intact; an
    explicit nprime_radius is taken literally.  The nesting N' cc N is
    checked here so bad configs fail before any computation starts.
    """
    config = scenario_defaults(scenario_id)
    overrides = dict(overrides or {})
    for key, val in overrides.items():
        if key not in OVERRIDE_KEYS:
            raise ScenarioError(
                f"unknown override {key!r} for {scenario_id}; "
                f"allowed: {', '.join(sorted(OVERRIDE_KEYS))}")
        config[key] = float(val)
    if "n_radius" in overrides and "nprime_radius" not in overrides:
        defaults = _DEFAULTS[scenario_id]
        config["nprime_radius"] = (defaults["nprime_radius"]
                                   * config["n_radius"] / defaults["n_radius"])
    for key, val in config.items():
        if not np.isfinite(val) or val <= 0.0:
            raise ScenarioError(f"override {key} must be positive and finite")
    if config["nprime_radius"] + 0.01 > config["n_radius"]:
        raise ScenarioError(
            "infeasible overrides: N' cc N violated "
            f"(nprime_radius {config['nprime_radius']:g} must sit strictly "
            f"inside n_radius {config['n_radius']:g})")
    return _BUILDERS[scenario_id](config)


def _smoothing_params(config: dict) -> SmoothingParams:
    return SmoothingParams(eps=config["eps"], delta=config["delta"],
                           eta=config["eta"], h=config["h"])


# ---------------------------------------------------------------------------
# builders

def _disk_triple(config: dict, ref_n: float, fracs: Tuple[float, float, float],
                 chart: Polydisk) -> NestedOpens:
    """Disk triple U cc V cc W about the chart's center.

    fracs are the radii of U, V and W at n_radius = ref_n; all three scale
    with n_radius, and U keeps a 0.02 collar outside N'.  The triple must
    nest and, with the mollifier reach eps, stay inside the chart.
    """
    n, npr = config["n_radius"], config["nprime_radius"]
    u_r = max(npr + 0.02, fracs[0] * (n / ref_n))
    v_r, w_r = fracs[1] * (n / ref_n), fracs[2] * (n / ref_n)
    if u_r + 0.01 > v_r:
        raise ScenarioError(
            f"infeasible overrides: nprime_radius {npr:g} leaves no room for "
            f"the nested triple inside n_radius {n:g}")
    if w_r + config["eps"] + 0.05 > chart.radii[0]:
        raise ScenarioError(
            f"infeasible overrides: n_radius {n:g} pushes the outer triple "
            "past the chart boundary")
    c = chart.center_values[0]
    return NestedOpens(Disk(c, u_r), Disk(c, v_r), Disk(c, w_r))


def _build_s1(config: dict) -> Scenario:
    n, npr = config["n_radius"], config["nprime_radius"]
    down = Disk(0.0, 1.5)
    opens = _disk_triple(config, 0.6, (0.42, 0.56, 0.59), down)
    u_r, w_r = opens.U.radii[0], opens.W.radii[0]
    if u_r <= 0.07:
        raise ScenarioError(
            f"infeasible overrides: the inner triple radius {u_r:g} leaves "
            "the band lattice no inner radius (it needs more than 0.07)")
    mass_r = max(1.0, w_r + 0.05)  # dd^c(2|w|) has mass 4 pi r on |w| < r

    chart_up = CocycleChart("z", RadialField(_abs_sq_profile, Disk(0.0, 1.5),
                                             name="abs_sq"))
    upstairs = KahlerCocycle((chart_up,), ())
    cover = (ChartPair("w", "z", PowerCover(2, down)),)
    steps = (GlueStep("w", opens),)

    h = config["h"]
    kink = Lattice(Disk(0.0, 0.75 * npr))
    battery = (
        SupGap("w", Complement(opens.V, within=Annulus(0.0, n, 1.5))),
        LeviZone("kink", "w", kink, h),
        LeviZone("band", "w", Lattice(Annulus(0.0, u_r - 0.07, w_r + 0.11)), h),
        C2Zone("w", Lattice(Disk(0.0, npr)), h),
        DiskMass("w", Disk(0.0, mass_r), 4.0 * np.pi * mass_r),
        FieldDump("w", kink, h, "S1_w_smoothed.csv"),
    )
    return Scenario("S1", config, cover, upstairs, (), steps,
                    _smoothing_params(config), battery=battery)


def _sublevel(thr: float, grad_scale: float) -> LevelRegion:
    return LevelRegion(discriminant_many, thr, 2, grad_scale=grad_scale)


def _disc_tube(config: dict, levels: Tuple[float, float], grad_scale: float,
               boxes, chart: Domain) -> Tuple[NestedOpens, Complement]:
    """Tube triple around the discriminant, with its gate window.

    U and V are the sublevels at levels (given at the default n_radius
    1.15 and scaled with n_radius), W the sublevel at n_radius itself; each
    member is clipped to the polydisk of matching index in boxes, which
    gives it its box and center.  The gate window is the chart minus a
    slightly fattened U.  N' must sit inside the U level.
    """
    n, npr = config["n_radius"], config["nprime_radius"]
    scale = n / 1.15
    u_lvl, v_lvl = levels[0] * scale, levels[1] * scale
    if npr + 0.01 > u_lvl:
        raise ScenarioError(
            f"infeasible overrides: nprime_radius {npr:g} reaches the inner "
            f"triple level {u_lvl:g}")
    opens = NestedOpens(*(
        Intersection((Polydisk((0.0, 0.0), box),
                      _sublevel(thr, grad_scale)))
        for thr, box in zip((u_lvl, v_lvl, n), boxes)))
    gate = Complement(_sublevel(u_lvl + 0.005, grad_scale), within=chart)
    return opens, gate


def _outside_tube(n: float, grad_scale: float, box: Tuple[float, float]) -> Complement:
    """Agreement region: the box minus the tube just outside N."""
    return Complement(_sublevel(n + 0.01, grad_scale),
                      within=Polydisk((0.0, 0.0), box))


def _annulus_window(center: complex, axis: int, r_in: float, r_out: float,
                    other_extent: float) -> Intersection:
    """Annular window in one complex coordinate, for slice grids.

    The box is the polydisk of radius r_out about center on axis and of
    radius other_extent about 0 on the other coordinate.  The level cuts
    out the disk r < r_in and keeps its edge r = r_in on the window; r_in
    below zero degenerates to a disk of radius r_out.
    """
    c = complex(center)

    def level(Z: np.ndarray) -> np.ndarray:
        Z = as_points(Z, 2)
        r = np.abs(Z[:, axis] - c)
        return np.where(r < r_in, 2.0 * r_out, r)

    centers, radii = [0j, 0j], [other_extent, other_extent]
    centers[axis], radii[axis] = c, r_out
    return Intersection((Polydisk(tuple(centers), tuple(radii)),
                         LevelRegion(level, r_out, 2)))


def _abs_sq(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.square(a, out=a)


def _abs_sq_profile(r2: np.ndarray, out=None) -> np.ndarray:
    """|z|^2 as a profile of r2 = |z|^2 (covers.RadialField): r2 itself."""
    return np.positive(r2, out=out)


def _log1p_abs_sq(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.abs(z) ** 2)


# The Vieta fiber sums of the two potentials above, in (s, p) =
# (e1, e2).  For the roots r1, r2 of t^2 - s t + p the parallelogram law
# gives 2 (|r1|^2 + |r2|^2) = |s|^2 + |s^2 - 4p|, and
# (1 + |r1|^2)(1 + |r2|^2) = 1 + |r1|^2 + |r2|^2 + |p|^2.  Each writes
# its value into out where one is given and returns it (the
# covers.ColumnField contract), with the bits of the allocating call.

def _abs_sq_sp(s: np.ndarray, p: np.ndarray, out=None) -> np.ndarray:
    d = np.abs(s * s - 4.0 * p, out=out)
    return np.add(np.abs(s) ** 2, d, out=d)


def _log1p_abs_sq_sp(s: np.ndarray, p: np.ndarray, out=None) -> np.ndarray:
    # (|s|^2 + |s^2 - 4p|) / 2 as |s^2 / 2 - 2p| + |s|^2 / 2, the same
    # bits away from subnormals, where halving is exact; on mollify's
    # translate product the halving falls on the s and p columns, not on
    # every cell
    x = np.abs(0.5 * (s * s) - 2.0 * p, out=out)
    x += 0.5 * np.abs(s) ** 2
    x += np.abs(p) ** 2
    np.log1p(x, out=x)
    x *= 2.0
    return x


def _build_s2(config: dict) -> Scenario:
    n = config["n_radius"]
    dom = Polydisk((0.0, 0.0), (1.9, 1.9))
    potential = SymmetricSum(_abs_sq, 4.2, _abs_sq_sp, name="sum_sq")
    opens, gate = _disc_tube(config, (0.55, 1.05), 4.0,
                             ((1.60, 1.60), (1.82, 1.82), (1.92, 1.92)), dom)

    upstairs = KahlerCocycle((CocycleChart("zz", potential),), ())
    cover = (ChartPair("sp", "zz", VietaCover(dom)),)
    steps = (GlueStep("sp", opens, gate_region=gate),)

    hs = config["h"] / _DEFAULTS["S2"]["h"]  # battery spacing scales with h
    s_band, s_gap = 0.9, 1.65
    kink = Lattice(_annulus_window(0.0, 1, -1.0, 0.05, 2.0), 1, (0.0, 0.0))
    battery = (
        SupGap("sp", Complement(opens.V, within=_outside_tube(n, 4.0, (1.85, 1.85)))),
        LeviZone("kink_slice", "sp", kink, 3e-3 * hs),
        LeviZone("band_slice", "sp", Lattice(
            _annulus_window(s_band ** 2 / 4.0, 1, 0.14, 0.25, 2.0),
            1, (s_band, 0.0)), 5e-3 * hs),
        LeviZone("boxgap_slice", "sp", Lattice(
            _annulus_window(s_gap ** 2 / 4.0, 1, 0.05, 0.10, 2.0),
            1, (s_gap, 0.0)), 4e-3 * hs),
        LeviZone("far_slice", "sp", Lattice(
            _annulus_window(1.549j, 0, 0.12, 0.26, 2.0),
            0, (0.0, -0.6)), 6e-3 * hs),
        C2Zone("sp", kink, 3e-3 * hs),
        DiskMass("sp", Disk(s_band ** 2 / 4.0, 0.30), 2.4 * np.pi, slice_s=s_band),
        FieldDump("sp", kink, 3e-3 * hs, "S2_sp_smoothed_kink_slice.csv"),
    )
    return Scenario("S2", config, cover, upstairs, (), steps,
                    _smoothing_params(config), battery=battery)


# S3's chart changes: z -> 1/z upstairs, and downstairs its Vieta image
# (s, p) -> (s/p, 1/p)
_swap_chart = SwapChart()
_inv_both = Inversion(2)


def _axis_shell(axis: int, r_in: float, r_out: float) -> Complement:
    rin = [60.0, 60.0]
    rin[axis] = r_in
    rout = [60.0, 60.0]
    rout[axis] = r_out
    return Complement(Polydisk((0.0, 0.0), tuple(rin)),
                      within=Polydisk((0.0, 0.0), tuple(rout)))


def _build_s3(config: dict) -> Scenario:
    n = config["n_radius"]
    fs1 = SymmetricSum(_log1p_abs_sq, 3.8, _log1p_abs_sq_sp)
    fs3 = SymmetricSum(_log1p_abs_sq, 2.4, _log1p_abs_sq_sp)
    dom1 = Polydisk((0.0, 0.0), (2.5, 3.5))
    dom3 = Polydisk((0.0, 0.0), (1.75, 1.05))
    tri1, gate1 = _disc_tube(config, (0.45, 0.95), 7.0,
                             ((0.85, 0.55), (1.00, 0.70), (1.10, 0.80)), dom1)
    tri3, gate3 = _disc_tube(config, (0.45, 0.95), 6.0,
                             ((0.50, 0.30), (0.62, 0.42), (0.72, 0.52)), dom3)

    ov_up_zz = Intersection((_axis_shell(0, 0.43, 3.7), _axis_shell(1, 0.43, 3.7)))
    ov_up_tt = Intersection((_axis_shell(0, 0.28, 2.3), _axis_shell(1, 0.28, 2.3)))
    upstairs = KahlerCocycle(
        (CocycleChart("zz", fs1), CocycleChart("tt", fs3)),
        (ChartOverlap("zz", "tt", ov_up_zz, _inv_both),
         ChartOverlap("tt", "zz", ov_up_tt, _inv_both)))

    ov13 = Intersection((dom1.shrink(0.06),
                         MappedRegion(dom3.shrink(0.06), _swap_chart, 2)))
    ov31 = Intersection((dom3.shrink(0.06),
                         MappedRegion(dom1.shrink(0.06), _swap_chart, 2)))
    downstairs_overlaps = (ChartOverlap("D1", "D3", ov13, _swap_chart),
                           ChartOverlap("D3", "D1", ov31, _swap_chart))

    steps = (GlueStep("D1", tri1, gate_region=gate1),
             GlueStep("D3", tri3, gate_region=gate3))
    cover = (ChartPair("D1", "zz", VietaCover(dom1)),
             ChartPair("D3", "tt", VietaCover(dom3)))

    # curve mass patches for the line {e1 = 0.3}; w0 recenters the second
    # coordinate and R(t) keeps the image inside |e2| <= 1
    w0 = 0.0225

    def _r_of_t(t: np.ndarray) -> np.ndarray:
        a = np.real(np.conj(w0) * np.exp(1j * t))
        return -a + np.sqrt(1.0 - abs(w0) ** 2 + a ** 2)

    def map_d1(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        w = w0 + S * _r_of_t(T) * np.exp(1j * T)
        return np.stack([np.full_like(w, 0.3 + 0j), w], axis=1)

    def map_d3(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        v = S * np.exp(1j * T)
        return np.stack([0.3 * v, v], axis=1)

    def map_zz(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        z = 1.4 * S * np.exp(1j * T)
        return np.stack([z, 0.3 - z], axis=1)

    def map_tt(S: np.ndarray, T: np.ndarray) -> np.ndarray:
        w = (1.0 / 1.4) * S * np.exp(1j * T)
        return np.stack([w, w / (0.3 * w - 1.0)], axis=1)

    two_pi = 2.0 * np.pi
    hs = config["h"] / _DEFAULTS["S3"]["h"]
    kink_d1 = Lattice(Polydisk((0.0, 0.0), (2.5, 0.05)), 1, (0.0, 0.0))
    kink_d3 = Lattice(Polydisk((0.0, 0.0), (1.75, 0.05)), 1, (0.0, 0.0))
    band = Lattice(_annulus_window(0.0, 1, 0.14, 0.24, 0.01), 1, (0.0, 0.0))
    battery = (
        OverlapDevChange(downstairs_overlaps),
        SupGap("D1", Complement(tri1.V, within=_outside_tube(n, 7.0, (2.3, 2.2))),
               "agreement_outside_N_sup_D1"),
        SupGap("D3", Complement(tri3.V, within=_outside_tube(n, 6.0, (1.69, 0.99))),
               "agreement_outside_N_sup_D3"),
        LeviZone("kink_slice_D1", "D1", kink_d1, 3e-3 * hs),
        LeviZone("kink_slice_D3", "D3", kink_d3, 3e-3 * hs),
        LeviZone("band_slice_D1", "D1", band, 5e-3 * hs),
        LeviZone("band_slice_D3", "D3", band, 5e-3 * hs),
        C2Zone("D1", kink_d1, 3e-3 * hs),
        CurveMass(up=(CurvePatch("zz", map_zz, (0.0, 1.0), (0.0, two_pi)),
                      CurvePatch("tt", map_tt, (0.0, 1.0), (0.0, two_pi))),
                  down=(CurvePatch("D1", map_d1, (0.0, 1.0), (0.0, two_pi)),
                        CurvePatch("D3", map_d3, (0.0, 1.0), (0.0, two_pi))),
                  oracle=8.0 * np.pi),
        FieldDump("D1", kink_d1, 3e-3 * hs, "S3_D1_smoothed_kink_slice.csv"),
        FieldDump("D3", kink_d3, 3e-3 * hs, "S3_D3_smoothed_kink_slice.csv"),
    )
    return Scenario("S3", config, cover, upstairs, downstairs_overlaps, steps,
                    _smoothing_params(config), battery=battery)


def _build_s4(config: dict) -> Scenario:
    n, npr = config["n_radius"], config["nprime_radius"]
    a = 0.5           # inner branch weight
    s_kink = 0.5      # kink circle radius in the near chart
    c0 = a * np.log(1.0 + s_kink ** 2)

    def phi_near(r2: np.ndarray, out=None) -> np.ndarray:
        # max(L, (1 - a) L + c0) with L = log1p(r2), r2 = |z|^2: L fills
        # out, and (1 - a) L + c0 takes one temporary of a row at a time
        L = np.log1p(r2, out=out)
        rows = np.atleast_2d(L)
        inner = np.empty(rows.shape[1:])
        for row in rows:
            np.multiply(row, 1.0 - a, out=inner)
            inner += c0
            np.maximum(row, inner, out=row)
        return L

    def phi_far(Z: np.ndarray) -> np.ndarray:
        r2 = np.abs(as_points(Z, 1)[:, 0]) ** 2
        L = np.log1p(r2)
        with np.errstate(divide="ignore"):
            inner = (1.0 - a) * L + a * np.log(r2) + c0
        return np.maximum(L, inner)

    near = RadialField(phi_near, Disk(0.0, 0.8), name="near")
    dom_near = near.valid_on
    dom_far = Disk(0.0, 1.0 / 0.46)
    inv = Inversion(1)

    # each overlap is the charts' whole intersection 0.46 < |z| < 0.79, so
    # the near correction is lifted to every far point the near chart covers
    overlaps = (ChartOverlap("near", "far", Annulus(0.0, 0.46, 0.79), inv),
                ChartOverlap("far", "near",
                             Annulus(0.0, 1.0 / 0.79, 1.0 / 0.46), inv))
    upstairs = KahlerCocycle(
        (CocycleChart("near", near),
         CocycleChart("far", ScalarField(phi_far, dom_far, name="far"))),
        overlaps)
    cover = (ChartPair("near", "near", IdentityCover(dom_near)),
             ChartPair("far", "far", IdentityCover(dom_far)))

    opens = _disk_triple(config, 0.63, (0.52, 0.62, 0.69), dom_near)
    steps = (GlueStep("near", opens),)

    hs = config["h"] / _DEFAULTS["S4"]["h"]
    c2_zone = Lattice(Disk(0.0, npr))
    battery = (
        OverlapDevChange(overlaps),
        SupGap("far", Annulus(0.0, 1.0 / 0.61, 2.10), "correction_lift_sup",
               samples=2000, tol=1e-6, kind="ge"),
        SupGap("near", Complement(opens.V, within=Annulus(0.0, n + 0.005, 0.79)),
               "agreement_outside_N_sup_near"),
        SupGap("far", Complement(MappedRegion(opens.V, inv, 1), within=Disk(0.0, 1.58)),
               "agreement_outside_N_sup_far"),
        LeviZone("near_disk", "near", Lattice(Disk(0.0, 0.66)), 5e-3 * hs),
        LeviZone("far_ring", "far", Lattice(Annulus(0.0, 1.70, 2.10)), 5e-3 * hs),
        C2Zone("near", c2_zone, 0.01),
        DiskMass("near", Disk(0.0, 0.65),
                 2.0 * np.pi * 2.0 * 0.65 ** 2 / (1.0 + 0.65 ** 2)),
        GlueVsLocal("near", Disk(0.0, 0.78)),
        FieldDump("near", c2_zone, 5e-3 * hs, "S4_near_smoothed.csv"),
    )
    return Scenario("S4", config, cover, upstairs, overlaps,
                    steps, _smoothing_params(config), battery=battery)


_BUILDERS: Dict[str, Callable[[dict], Scenario]] = {
    "S1": _build_s1, "S2": _build_s2, "S3": _build_s3, "S4": _build_s4,
}


# ---------------------------------------------------------------------------
# checks
#
# Each builder lists its checks as an ordered tuple of specs, and
# run_scenario walks the tuple once.  A spec names the checks it emits, in
# report order (names), and computes them: run(scenario, glue result,
# dump_dir) yields one (timing key, check) pair per check, so a failure
# midway keeps the checks already made.

def _check(name: str, value: float, tol: float, kind: str = "le") -> dict:
    c = {"name": name, "value": float(value), "tol": float(tol), "kind": kind}
    c["pass"] = check_passes(c)
    return c


def check_passes(c: dict) -> bool:
    """Recompute a check's verdict from its recorded value, tolerance and
    kind alone.  The only note a run puts on a record is the pipeline
    failure's error; it never decides the verdict, nor does any other key
    a stored report carries."""
    if c.get("kind", "le") == "ge":
        return c["value"] >= c["tol"]
    return c["value"] <= c["tol"]


def _sup_gap(f: ScalarField, g: ScalarField, pts: np.ndarray) -> float:
    return float(np.max(np.abs(f.eval_many(pts) - g.eval_many(pts))))


def _fields(res, chart: str) -> Tuple[ScalarField, ScalarField]:
    """(raw pushforward, smoothed) potentials of one downstairs chart."""
    return res.raw.chart(chart).potential, res.cocycle.chart(chart).potential


def _slice_field_at(f: ScalarField, s0: complex, valid: Domain) -> ScalarField:
    def ev(W2: np.ndarray) -> np.ndarray:
        W2 = as_points(W2, 1)
        Z = np.stack([np.full(W2.shape[0], complex(s0)), W2[:, 0]], axis=1)
        return f.eval_many(Z)
    return ScalarField(ev, valid)


@dataclass(frozen=True)
class Lattice:
    """Evaluation lattice on a window: the full grid, or the one-variable
    slice through basepoint along free_axis."""

    window: Domain
    free_axis: Optional[int] = None
    basepoint: tuple = ()

    def grid(self, h: float) -> Grid:
        if self.free_axis is None:
            return sample_grid(self.window, h)
        return sample_slice_grid(self.window, h, self.free_axis, self.basepoint)


@dataclass(frozen=True)
class SupGap:
    """Sup |smoothed - raw| of one chart over a fixed Halton sample of a
    region, checked against tol by kind.

    With the defaults it is exact agreement outside N: the smoothed field
    evaluates the raw one verbatim off the correction's support V, so the
    check passes only at exactly 0.0 and any nonzero gap is a real defect,
    not roundoff.  Builders pass the region less V as
    Complement(V, within=region): a region that meets V is measured on its
    part outside V, and one wholly inside V ends the run with a
    DomainError.  As the correction lift ("ge" against 1e-6) it shows that
    a correction made in another chart reaches this one through the
    overlaps.  The record carries no note besides its numbers.
    """

    chart: str
    region: Domain
    name: str = "agreement_outside_N_sup"
    samples: int = AGREE_SAMPLES
    tol: float = 0.0
    kind: str = "le"

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.name,)

    def run(self, s, res, dump_dir):
        raw, psi = _fields(res, self.chart)
        pts = halton_sample(self.region, self.samples)
        yield self.name, _check(self.name, _sup_gap(psi, raw, pts), self.tol, self.kind)


@dataclass(frozen=True)
class OverlapDevChange:
    """Gluing leaves each downstairs overlap's cocycle deviation unchanged."""

    overlaps: Tuple[ChartOverlap, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(f"overlap_dev_change_{ov.src}_{ov.dst}" for ov in self.overlaps)

    def run(self, s, res, dump_dir):
        devs_raw = validate_cocycle(res.raw)
        devs_glued = validate_cocycle(res.cocycle)
        for name, ov in zip(self.names, self.overlaps):
            key = f"{ov.src}->{ov.dst}"
            yield "overlap_dev_change", _check(
                name, abs(devs_glued[key] - devs_raw[key]), 1e-8)


@dataclass(frozen=True)
class LeviZone:
    """Smallest Levi eigenvalue of the smoothed field stays positive on the
    lattice at spacing h and h/2."""

    zone: str
    chart: str
    lattice: Lattice
    h: float

    @property
    def names(self) -> Tuple[str, ...]:
        return (f"levi_min_{self.zone}_h", f"levi_min_{self.zone}_h2")

    def run(self, s, res, dump_dir):
        psi = res.cocycle.chart(self.chart).potential
        for name, hh in zip(self.names, (self.h, self.h / 2.0)):
            rep = min_levi_eigenvalue(psi, self.lattice.grid(hh), hh)
            yield name, _check(name, rep.min_eigenvalue, 1e-9, kind="ge")


@dataclass(frozen=True)
class C2Zone:
    """Laplacian sup ratio under halving h: the raw kink at least doubles
    (>= 1.9), the smoothed field stays bounded (<= 1.5)."""

    chart: str
    lattice: Lattice
    h: float
    names = ("c2_ratio_raw", "c2_ratio_smoothed")

    def run(self, s, res, dump_dir):
        h = self.h
        g1, g2 = self.lattice.grid(h), self.lattice.grid(h / 2.0)
        for name, f, tol, kind in zip(self.names, _fields(res, self.chart),
                                      (1.9, 1.5), ("ge", "le")):
            ratio = c2_ratio(laplacian_sup(f, g1, h), laplacian_sup(f, g2, h / 2.0))
            yield "c2_ratios", _check(name, ratio, tol, kind=kind)


@dataclass(frozen=True)
class DiskMass:
    """Raw disk mass on the lattice of spacing 4e-3 (`spacing`) within 1%
    of the oracle, moved at most 1e-9 by the smoothing.  With slice_s the
    disk lies in the second coordinate of the slice {first coordinate =
    slice_s}."""

    chart: str
    disk: Polydisk
    oracle: float
    slice_s: Optional[float] = None
    names = ("mass_raw_rel_err", "mass_smoothed_drift")
    spacing = 4e-3

    def fields(self, res) -> Tuple[ScalarField, ScalarField]:
        """(raw, smoothed) potentials on the plane of the disk."""
        if self.slice_s is None:
            return _fields(res, self.chart)
        valid = Disk(self.disk.center_values[0], self.disk.radii[0] + 0.10)
        return tuple(_slice_field_at(f, self.slice_s, valid)
                     for f in _fields(res, self.chart))

    def run(self, s, res, dump_dir):
        m_raw, m_sm = (mass_integral(f, self.disk, self.spacing)
                       for f in self.fields(res))
        err_name, drift_name = self.names
        yield "mass_conservation", _check(
            err_name, abs(m_raw - self.oracle) / self.oracle, 0.01)
        yield "mass_conservation", _check(drift_name, abs(m_sm - m_raw), 1e-9)


@dataclass(frozen=True)
class CurveMass:
    """Curve mass within 2% of the class oracle: upstairs on the up patches,
    downstairs before and after smoothing on the down patches."""

    up: Tuple[CurvePatch, ...]
    down: Tuple[CurvePatch, ...]
    oracle: float
    names = ("curve_mass_upstairs_rel_err", "curve_mass_raw_rel_err",
             "curve_mass_smoothed_rel_err")

    def run(self, s, res, dump_dir):
        for name, cocycle, patches in zip(
                self.names, (s.upstairs, res.raw, res.cocycle),
                (self.up, self.down, self.down)):
            m = curve_mass(cocycle, patches)
            yield "curve_mass_class", _check(
                name, abs(m - self.oracle) / self.oracle, 0.02)


@dataclass(frozen=True)
class GlueVsLocal:
    """The glued field of the chart equals local_smooth run directly on its
    raw potential, bit for bit on a Halton sample of zone."""

    chart: str
    zone: Domain
    names = ("glue_matches_local_sup",)

    def run(self, s, res, dump_dir):
        raw, psi = _fields(res, self.chart)
        step = next(st for st in s.steps if st.chart_name == self.chart)
        direct = local_smooth(raw, step.opens, s.params)
        pts = halton_sample(self.zone, 4000)
        (name,) = self.names
        yield name, _check(name, _sup_gap(direct.psi, psi, pts), 0.0)


@dataclass(frozen=True)
class FieldDump:
    """CSV dump of the smoothed field on a lattice; emits no check and
    writes only when the run has a dump directory."""

    chart: str
    lattice: Lattice
    h: float
    filename: str
    names = ()

    def run(self, s, res, dump_dir):
        if dump_dir:
            dump_field_csv(res.cocycle.chart(self.chart).potential,
                           self.lattice.grid(self.h),
                           os.path.join(dump_dir, self.filename))
        return ()


def _environment(s: Scenario) -> dict:
    n = s.upstairs.charts[0].potential.n
    kern = mollifier_kernel(2 * n, MOLL_ORDER[n])
    env = {
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "numpy": np.__version__,
        "halton_start": HALTON_START,
        "agreement_samples": AGREE_SAMPLES,
        "moll_order": MOLL_ORDER[n],
        "moll_kernel_nodes": int(kern.offsets.shape[0]),
        "moll_kernel_m2": kern.m2_unit,
        "regmax_order": REGMAX_ORDER,
        "bump_integral": BUMP_INTEGRAL,
        "gate_h": s.params.h,
    }
    env["battery_h"] = {spec.zone: [spec.h, spec.h / 2.0]
                        for spec in s.battery if isinstance(spec, LeviZone)}
    return env


def run_scenario(s: Scenario, dump_dir: Optional[str] = None,
                 timings: Optional[dict] = None) -> dict:
    """Execute the pipeline and the scenario's full check battery.

    The upstairs cocycle check comes first, then the pipeline, then the
    specs of s.battery in order.  Pipeline failures (infeasible parameters,
    domain errors) do not raise: they are embedded as a failing check so
    the report always exists.
    """
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)

    def note(name: str, t0: float) -> None:
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + (time.time() - t0)

    checks: List[dict] = []
    t_total = time.time()
    try:
        t0 = time.time()
        devs = validate_cocycle(s.upstairs)
        checks.append(_check("upstairs_cocycle_dev_max",
                             max(devs.values(), default=0.0), 1e-4))
        note("upstairs_cocycle_dev_max", t0)
        t0 = time.time()
        res = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                 s.steps, s.params)
        note("pipeline", t0)
        for spec in s.battery:
            t0 = time.time()
            for stage, check in spec.run(s, res, dump_dir):
                checks.append(check)
                note(stage, t0)
                t0 = time.time()
    except CoverSmoothError as exc:
        bad = _check("pipeline", 1.0, 0.0)
        bad["error"] = f"{type(exc).__name__}: {exc}"
        bad["error_type"] = type(exc).__name__
        checks.append(bad)
    note("total", t_total)
    return {
        "scenario": s.scenario_id,
        "params": dict(s.config),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "env": _environment(s),
    }
