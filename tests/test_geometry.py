"""Domains, deterministic sampling, grids, CSV dumps, and the disk mass."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth.errors import (
    DomainError,
    EmptyGridError,
    ParameterError,
    UnsupportedDimensionError,
)
from coversmooth.covers import discriminant_many
from coversmooth.geometry import (
    Annulus,
    Complement,
    Disk,
    Grid,
    Intersection,
    LevelRegion,
    MappedRegion,
    Polydisk,
    ScalarField,
    csv_header,
    dump_field_csv,
    halton_sample,
    mass_integral,
    polydisk_radii,
    reals,
    sample_grid,
    sample_slice_grid,
)
from coversmooth.psh import translates_stay_inside


def test_halton_sample_is_deterministic_and_lands_inside():
    d = Disk(0.3 + 0.1j, 0.9)
    a = halton_sample(d, 200, start=1)
    b = halton_sample(d, 200, start=1)
    assert np.array_equal(a, b)
    assert d.contains_many(a).all()
    c = halton_sample(d, 200, start=2)
    assert not np.array_equal(a, c)


def test_halton_sample_two_variables():
    p = Polydisk((0.1, -0.2j), (1.0, 0.7))
    pts = halton_sample(p, 300, start=1)
    assert pts.shape == (300, 2)
    assert p.contains_many(pts).all()


def test_halton_sample_gives_up_on_empty_region():
    empty = Intersection((Disk(0.0, 0.2), Disk(5.0, 0.2)))
    with pytest.raises(DomainError):
        halton_sample(empty, 8, start=1)


@given(
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(0.1, 1.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_disk_samples_have_positive_boundary_distance(cx, cy, r):
    d = Disk(complex(cx, cy), r)
    pts = halton_sample(d, 64, start=1)
    assert d.contains_many(pts).all()
    assert (d.boundary_distance_many(pts) > 0).all()


@given(st.floats(0.3, 1.0, allow_nan=False), st.floats(0.01, 0.1, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_shrunk_domain_keeps_the_stated_margin(r, m):
    d = Disk(0.0, r)
    pts = halton_sample(d.shrink(m), 64, start=1)
    assert (d.boundary_distance_many(pts) >= m - 1e-12).all()


def test_bbox_contains_every_sample():
    dom = Annulus(0.2j, 0.4, 1.1)
    pts = halton_sample(dom, 256, start=1)
    lo, hi = dom.bbox()
    X = np.column_stack([pts[:, 0].real, pts[:, 0].imag])
    assert (X >= lo - 1e-12).all()
    assert (X <= hi + 1e-12).all()


def test_grid_count_matches_lattice_enumeration():
    # oracle: direct integer-offset enumeration around the disk center
    center, r, h = 0.2 + 0.1j, 0.53, 0.04
    count = 0
    for i in range(-40, 41):
        for j in range(-40, 41):
            if abs(complex(i * h, j * h)) < r:
                count += 1
    g = sample_grid(Disk(center, r), h)
    assert len(g) == count
    assert g.nodes.shape == (count, 1)
    assert g.h == h


def test_grid_is_anchored_at_the_center():
    c = 0.25 + 0.5j
    g = sample_grid(Disk(c, 0.3), 0.07)
    assert np.any(g.nodes[:, 0] == c)


def test_grids_record_their_lattice_origin():
    c, h = 0.25 + 0.5j, 0.07
    g = sample_grid(Disk(c, 0.3), h)
    assert np.array_equal(g.origin, [c.real, c.imag])
    g = sample_slice_grid(Polydisk((0, 0), (1.0, 1.0)), 0.05, 1, (0.3, 0.1 - 0.2j))
    assert np.array_equal(g.origin, [0.3, 0.0, 0.1, -0.2])
    for grid in (g, Grid(g.nodes[5:], g.h, g.domain)):
        q = (reals(grid.nodes) - grid.origin) / grid.h
        assert np.max(np.abs(q - np.rint(q))) < 1e-9
    assert np.array_equal(Grid(g.nodes[5:], g.h, g.domain).origin, reals(g.nodes[5:6])[0])


def test_grid_with_no_interior_nodes_raises():
    empty = Intersection((Disk(0.0, 0.2), Disk(5.0, 0.2)))
    with pytest.raises(EmptyGridError):
        sample_grid(empty, 0.1)


def test_slice_grid_pins_the_other_axis():
    dom = Polydisk((0, 0), (1.0, 1.0))
    g = sample_slice_grid(dom, 0.05, 1, (0.3, 0.0))
    assert g.n == 2
    assert np.all(g.nodes[:, 0] == 0.3 + 0j)
    assert len(g) > 100
    assert dom.contains_many(g.nodes).all()


def test_slice_grid_over_the_site_cap_is_a_parameter_error():
    dom = Polydisk((0, 0), (1.0, 1.0))
    with pytest.raises(ParameterError) as err:
        sample_slice_grid(dom, 1e-5, 1, (0.3, 0.0))
    assert err.value.condition == "lattice sites <= 40000000"
    assert "h = 1e-05" in err.value.detail


@pytest.mark.parametrize("h", [0.0, -0.05, math.nan])
@pytest.mark.parametrize("build", [
    lambda h: sample_grid(Disk(0.0, 1.0), h),
    lambda h: sample_slice_grid(Polydisk((0, 0), (1.0, 1.0)), h, 1, (0.3, 0.0)),
], ids=["sample_grid", "sample_slice_grid"])
def test_a_spacing_that_is_not_positive_is_a_value_error(build, h):
    with pytest.raises(ValueError, match="grid spacing must be positive"):
        build(h)


def test_the_site_cap_is_counted_before_any_axis_is_allocated():
    # 10^7 sites per axis, 10^14 in all: refused with no axis built
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            sample_grid(Disk(0.0, 1.5), 3e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_field_eval_outside_domain_raises():
    f = ScalarField(lambda Z: np.abs(Z[:, 0]), Disk(0.0, 0.5), name="r")
    with pytest.raises(DomainError):
        f.eval_many(np.array([[2.0 + 0j]]))


def test_csv_header_layout():
    assert csv_header(1) == ["re_1", "im_1", "value"]
    assert csv_header(2) == ["re_1", "im_1", "re_2", "im_2", "value"]


def test_csv_dump_roundtrips_exactly(tmp_path):
    """repr-based serialization restores every float bit for bit."""
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0), name="sq")
    g = sample_grid(Disk(0.0, 0.2), 0.05)
    path = tmp_path / "dump.csv"
    dump_field_csv(f, g, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re_1", "im_1", "value"]
    assert len(rows) == len(g) + 1
    vals = f.eval_many(g.nodes)
    for k in (1, len(g) // 2, len(g)):
        z = complex(float(rows[k][0]), float(rows[k][1]))
        assert z == g.nodes[k - 1, 0]
        assert float(rows[k][2]) == vals[k - 1]


def test_disk_mass_matches_radial_flux_oracle():
    """Mass over the disk of radius R equals the boundary flux 2 pi R u'(R)."""
    R = 0.7
    oracle = 2.0 * math.pi * R * (2.0 * R)  # u(r) = r^2 has u'(R) = 2R
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0), name="sq")
    got = mass_integral(f, Disk(0.0, R), 4e-3)
    assert got == pytest.approx(oracle, rel=1e-3)


def test_mass_integral_rejects_two_variables():
    f = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 2, Polydisk((0, 0), (1, 1)), name="s"
    )
    with pytest.raises(UnsupportedDimensionError):
        mass_integral(f, Polydisk((0, 0), (0.5, 0.5)), 0.01)


# boundary distances that are 1-Lipschitz, one domain per boxed type; the
# mollifier's shrink proof (psh.translates_stay_inside) declares and reads
# the polydisk's only
_DECLARED = {
    "disk": Disk(0.2 + 0.1j, 0.9),
    "annulus": Annulus(-0.1j, 0.3, 1.1),
    "polydisk": Polydisk((0.1, -0.2j), (1.0, 0.6), gauge_gap=0.02),
    "intersection": Intersection((Disk(0.0, 1.0), Annulus(0.4, 0.2, 0.9))),
    "complement": Complement(Polydisk((0, 0), (0.3, 0.5)),
                             within=Polydisk((0, 0), (1.0, 0.8))),
    "shrunk": Disk(0.1j, 1.0).shrink(0.1).shrink(0.05),
    "shrunk_intersection": Intersection((Polydisk((0, 0), (1.0, 1.0)),
                                         Polydisk((0.2, 0), (1.0, 1.2)))).shrink(0.1),
}


@pytest.mark.parametrize("name", sorted(_DECLARED))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_declared_gauge_keeps_every_move_shorter_than_the_distance_inside(name, seed):
    dom = _DECLARED[name]
    rng = np.random.default_rng(seed)
    lo, hi = dom.bbox()
    # the mollifier's shrink proof reads the box of a polydisk
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    X = lo + rng.random((4000, lo.size)) * (hi - lo)
    Z = X[:, 0::2] + 1j * X[:, 1::2]
    d = dom.boundary_distance_many(Z)
    Z, d = Z[d > 0], d[d > 0]
    # t = frac * d < d (frac = 1 - 1e-6 on a quarter of the points), then a
    # move of length up to t, biased towards t, in a uniform direction
    t = d * rng.uniform(0.0, 1.0 - 1e-6, d.size)
    t[: d.size // 4] = d[: d.size // 4] * (1.0 - 1e-6)
    u = rng.normal(size=(d.size, lo.size))
    u *= (t * rng.uniform(0.0, 1.0, d.size) ** 0.1 / np.linalg.norm(u, axis=1))[:, None]
    assert dom.contains_many(Z + (u[:, 0::2] + 1j * u[:, 1::2])).all()


def _s2_tube(threshold: float) -> LevelRegion:
    """The S2 sublevel {|s^2 - 4p| < threshold} with grad_scale 4."""
    return LevelRegion(discriminant_many, threshold, 2, grad_scale=4.0)


@pytest.mark.parametrize("dom", [
    _s2_tube(1.05),
    MappedRegion(Disk(0.0, 1.0), lambda Z: 3.0 * Z, 1),
    Intersection((_s2_tube(1.05), _s2_tube(0.5))),
], ids=["level", "mapped", "intersection_of_levels"])
def test_an_opaque_domain_has_no_box(dom):
    with pytest.raises(NotImplementedError):
        dom.bbox()


def test_a_boxed_tube_has_the_box_of_its_polydisk():
    box = Polydisk((0.1, -0.2j), (1.6, 1.82), gauge_gap=0.02)
    want = box.bbox()
    for dom in (Intersection((box, _s2_tube(1.05))),
                Intersection((_s2_tube(1.05), box))):
        got = dom.bbox()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert np.array_equal(Intersection((box, _s2_tube(1.05))).center, box.center)


def test_the_s2_level_gauge_is_a_counterexample_and_is_not_declared():
    tube = _s2_tube(1.05)
    z = np.array([[1.8 + 0j, 0.56 + 0j]])  # |s^2 - 4p| = 1.0
    d = float(tube.boundary_distance_many(z)[0])
    assert d == pytest.approx(0.0125)
    # along the gradient (3.6, -4) of s^2 - 4p the gauge drops 1.35x faster
    step = np.array([[3.6 + 0j, -4.0 + 0j]])
    moved = z + 0.96 * d * step / np.linalg.norm(step)
    assert not tube.contains_many(moved)[0]
    assert not translates_stay_inside(tube, 0.01, 0.9)


def test_only_metric_gauges_are_declared_1_lipschitz():
    # none of these gets the shrink proof, which declares polydisks only
    tube = _s2_tube(1.05)
    mapped = MappedRegion(Disk(0.0, 1.0), lambda Z: 3.0 * Z, 1)
    for dom in (tube, mapped, tube.shrink(0.1),
                Intersection((Polydisk((0, 0), (1.0, 1.0)), tube)),
                Complement(tube, within=Polydisk((0, 0), (1.0, 1.0))),
                Complement(Disk(0.0, 0.2), within=mapped)):
        assert not translates_stay_inside(dom, 0.07, 0.9)


def test_a_mapped_region_reads_finite_rows_in_target_coordinates():
    inv = MappedRegion(Disk(0.0, 2.0), lambda Z: 1.0 / Z, 1)
    Z = np.array([[0.25 + 0j], [1.0 + 0j], [-2.0j]])
    assert np.array_equal(inv.boundary_distance_many(Z), [-2.0, 1.0, 1.5])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = inv.boundary_distance_many(np.vstack([Z, [[0j]]]))
    assert np.array_equal(got, [-2.0, 1.0, 1.5, -np.inf])


_BOX = Polydisk((0, 0), (1.0, 0.7))
_LEVEL = LevelRegion(lambda Z: np.abs(Z[:, 1]), 0.5, 2)


@pytest.mark.parametrize("dom, radii", [
    (_BOX, (1.0, 0.7)),
    (_BOX.shrink(0.2), (0.8, 0.5)),
    (Intersection((_LEVEL, _BOX)), (1.0, 0.7)),
    (Polydisk((0, 0.1), (1.0, 0.7)), None),
    (_BOX.shrink(0.7), None),
    (_LEVEL, None),
], ids=["polydisk", "shrink", "intersection", "off_center", "shrink_to_nothing",
        "level_set"])
def test_polydisk_radii_bound_only_a_domain_inside_a_polydisk_about_0(dom, radii):
    got = polydisk_radii(dom)
    if radii is None:
        assert got is None
    else:
        assert got == pytest.approx(radii, abs=1e-15)
