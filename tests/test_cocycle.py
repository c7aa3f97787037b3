"""Chart cocycles, overlap validation, and curve masses.

Mass oracles: with the convention dd^c u = 2 i del delbar u, the round
metric potential log(1 + |z|^2) integrates to 4 pi over the projective
line, and the diagonal in the product of two lines carries 8 pi.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth.cocycle import (
    ChartOverlap,
    CocycleChart,
    CurvePatch,
    Inversion,
    KahlerCocycle,
    SwapChart,
    curve_mass,
    curve_mass_patch,
    validate_cocycle,
)
from coversmooth.covers import CONTAINMENT_SLACK
from coversmooth.errors import CoverageError, DomainError
from coversmooth.geometry import (
    Annulus,
    Disk,
    Polydisk,
    ScalarField,
    halton_sample,
)
from coversmooth.scenarios import build_scenario

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


def _inv(Z):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / Z


def _round_sphere():
    fs = lambda Z: np.log1p(np.abs(Z[:, 0]) ** 2)
    dom = Disk(0.0, 3.0)
    ring = Annulus(0.0, 0.5, 2.0)
    cz = CocycleChart("z", ScalarField(fs, dom, name="fs"))
    cw = CocycleChart("w", ScalarField(fs, dom, name="fs"))
    return KahlerCocycle(
        (cz, cw),
        (ChartOverlap("z", "w", ring, _inv), ChartOverlap("w", "z", ring, _inv)),
    )


def test_round_sphere_cocycle_validates():
    devs = validate_cocycle(_round_sphere())
    assert set(devs) == {"z->w", "w->z"}
    for dev in devs.values():
        assert dev < 1e-5


def test_incompatible_overlap_is_rejected():
    fs = lambda Z: np.log1p(np.abs(Z[:, 0]) ** 2)
    dom = Disk(0.0, 3.0)
    ring = Annulus(0.0, 0.5, 2.0)
    cz = CocycleChart("z", ScalarField(fs, dom, name="fs"))
    # doubled potential on the far chart: the difference picks up curvature
    cw = CocycleChart(
        "w", ScalarField(lambda Z: 2.0 * fs(Z), dom, name="fs2")
    )
    bad = KahlerCocycle((cz, cw), (ChartOverlap("z", "w", ring, _inv),))
    with pytest.raises(CoverageError, match="pluriharmonic"):
        validate_cocycle(bad)


def test_unknown_chart_lookup_raises():
    with pytest.raises(KeyError):
        _round_sphere().chart("nope")


def _polar_disk_patch(chart: str) -> CurvePatch:
    def mapper(S, T):
        return (S * np.exp(1j * T)).reshape(-1, 1)

    return CurvePatch(chart, mapper, (0.0, 1.0), (0.0, 2.0 * np.pi))


def test_round_sphere_total_mass_is_four_pi():
    # unit disks of the two charts tile the sphere up to a measure-zero circle
    patches = (_polar_disk_patch("z"), _polar_disk_patch("w"))
    mass = curve_mass(_round_sphere(), patches)
    assert mass == pytest.approx(FOUR_PI, rel=1e-5)


def test_diagonal_curve_in_the_product_carries_eight_pi():
    """A (1,1) curve meets both rulings once, so its mass doubles."""
    fs2 = lambda Z: np.log1p(np.abs(Z[:, 0]) ** 2) + np.log1p(np.abs(Z[:, 1]) ** 2)
    big = Polydisk((0, 0), (3.0, 3.0))
    ca = CocycleChart("a", ScalarField(fs2, big, name="fsp"))
    cb = CocycleChart("b", ScalarField(fs2, big, name="fsp"))
    coc = KahlerCocycle((ca, cb), ())

    def diag(S, T):
        z = S * np.exp(1j * T)
        return np.stack([z, z], axis=1)

    patches = (
        CurvePatch("a", diag, (0.0, 1.0), (0.0, 2.0 * np.pi)),
        CurvePatch("b", diag, (0.0, 1.0), (0.0, 2.0 * np.pi)),
    )
    mass = curve_mass(coc, patches)
    assert mass == pytest.approx(EIGHT_PI, rel=1e-5)


def test_curve_patch_finite_difference_tangents_agree_with_analytic():
    S = np.array([0.4, 0.7])
    T = np.array([0.3, 2.1])
    # closed-form derivatives of z = s e^{it}
    a1 = np.exp(1j * T).reshape(-1, 1)
    b1 = (1j * S * np.exp(1j * T)).reshape(-1, 1)
    a2, b2 = _polar_disk_patch("z").tangents(S, T)
    assert np.max(np.abs(a1 - a2)) < 1e-8
    assert np.max(np.abs(b1 - b2)) < 1e-8


def test_an_overlap_that_maps_out_of_its_target_chart_raises():
    # the round sphere with the far chart cut down to |w| < 1.5: the ring
    # 0.5 < |z| < 2 maps onto 0.5 < |w| < 2, partly outside it
    coc = _round_sphere()
    small = Disk(0.0, 1.5)
    fs = coc.chart("w").potential
    cut = KahlerCocycle(
        (coc.chart("z"),
         CocycleChart("w", ScalarField(fs.evaluator, small))),
        coc.overlaps[:1])
    with pytest.raises(DomainError):
        validate_cocycle(cut)


def test_a_curve_patch_leaving_its_chart_raises():
    fs = lambda Z: np.log1p(np.abs(Z[:, 0]) ** 2)
    pot = ScalarField(fs, Disk(0.0, 0.9), name="fs")
    with pytest.raises(DomainError):
        curve_mass_patch(pot, _polar_disk_patch("z"))


@pytest.mark.parametrize("transform", [Inversion(1), Inversion(2), SwapChart()],
                         ids=["inversion_1", "inversion_2", "swap"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(radii=st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_typed_transform_keeps_its_image_of_a_polydisk_above_its_floor(
        transform, radii, seed):
    # rows uniform in the polydisk about 0, plus rows a rounding step inside
    # its rim, where each floor is tight
    n = transform.n
    radii = np.array(radii[:n])
    rng = np.random.default_rng(seed)
    frac = np.vstack([np.sqrt(rng.random((2000, n))), np.full((8, n), 1.0 - 1e-15)])
    Z = frac * radii * np.exp(2j * np.pi * rng.random(frac.shape))
    Z = Z[(np.abs(Z) < radii).all(axis=1) & (Z != 0).all(axis=1)]
    floor = np.array(transform.floor(tuple(radii)))
    W = transform(Z)
    assert W.shape == Z.shape
    assert (np.abs(W) * (1.0 + CONTAINMENT_SLACK) >= floor).all()
