"""Domains, deterministic sampling, grids, CSV dumps, and the disk mass."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth import geometry
from coversmooth.errors import (
    DomainError,
    EmptyGridError,
    ParameterError,
    UnsupportedDimensionError,
)
from coversmooth.covers import discriminant_many
from coversmooth.geometry import (
    GAUGE_GAP,
    HALTON_START,
    Annulus,
    Complement,
    Disk,
    Grid,
    Intersection,
    LevelRegion,
    MappedRegion,
    Polydisk,
    ScalarField,
    _softmin,
    csv_header,
    dump_field_csv,
    halton,
    halton_sample,
    mass_integral,
    polydisk_radii,
    reals,
    sample_grid,
    sample_slice_grid,
)
from coversmooth.psh import (
    _EVAL_CHUNK,
    laplacian_sup,
    min_levi_eigenvalue,
    translates_stay_inside,
)
from coversmooth.scenarios import DiskMass, LeviZone, build_scenario
from coversmooth.smoothing import smooth_pushforward


def test_halton_sample_is_deterministic_and_lands_inside():
    d = Disk(0.3 + 0.1j, 0.9)
    a = halton_sample(d, 200)
    b = halton_sample(d, 200)
    assert np.array_equal(a, b)
    assert d.contains_many(a).all()

    # the stream starts at HALTON_START: a holds the first bbox candidates
    # that land inside, and the stream one index on is another sample
    def first_inside(start):
        lo, hi = d.bbox()
        X = lo + halton(2, 1000, start) * (hi - lo)
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        return Z[d.contains_many(Z)][:200]

    assert np.array_equal(a, first_inside(HALTON_START))
    c = first_inside(HALTON_START + 1)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("col", [
    np.array([0.3, -1.2, 0.0, -0.0, 5e-300]),
    np.array([np.inf, -np.inf, np.nan, 1.0]),
], ids=["finite", "non_finite"])
def test_the_softmin_of_one_column_is_that_column(col):
    assert GAUGE_GAP > 0.0
    out = _softmin([col])
    assert out.tobytes() == col.tobytes()


def test_halton_sample_two_variables():
    p = Polydisk((0.1, -0.2j), (1.0, 0.7))
    pts = halton_sample(p, 300)
    assert pts.shape == (300, 2)
    assert p.contains_many(pts).all()


def test_halton_sample_gives_up_on_empty_region():
    empty = Intersection((Disk(0.0, 0.2), Disk(5.0, 0.2)))
    with pytest.raises(DomainError):
        halton_sample(empty, 8)


class _RowCounter:
    """A region's bbox and membership, counting the rows tested."""

    def __init__(self, dom):
        self.dom = dom
        self.rows = 0

    def bbox(self):
        return self.dom.bbox()

    def contains_many(self, Z):
        self.rows += Z.shape[0]
        return self.dom.contains_many(Z)


@pytest.mark.parametrize("count, rows", [
    (1, 2048 + 3000),          # a one-point draw spends its whole budget
    (10_000, 4 * 10_000 + 256),  # one block, not 2048 + 3000 * 10,000 rows
])
def test_halton_sample_gives_up_on_an_empty_region_after_a_one_point_budget(count, rows):
    empty = _RowCounter(Complement(Disk(0.0, 0.95), within=Annulus(0.0, 0.6, 0.9)))
    with pytest.raises(DomainError, match=r"\(found 0\)"):
        halton_sample(empty, count)
    assert empty.rows == rows


def test_a_thin_region_keeps_the_whole_budget_once_it_has_a_point():
    # about one candidate in 640 lands in the shell, so 20 points need more
    # than a one-point draw's 5,048 candidates
    shell = _RowCounter(Complement(Disk(0.0, 0.999), within=Disk(0.0, 1.0)))
    pts = halton_sample(shell, 20)
    assert shell.rows > 2048 + 3000
    lo, hi = shell.bbox()
    X = lo + halton(2, shell.rows, HALTON_START) * (hi - lo)
    Z = X[:, 0::2] + 1j * X[:, 1::2]
    assert np.array_equal(pts, Z[shell.dom.contains_many(Z)][:20])


@given(
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(0.1, 1.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_disk_samples_have_positive_boundary_distance(cx, cy, r):
    d = Disk(complex(cx, cy), r)
    pts = halton_sample(d, 64)
    assert d.contains_many(pts).all()
    assert (d.boundary_distance_many(pts) > 0).all()


@given(st.floats(0.3, 1.0, allow_nan=False), st.floats(0.01, 0.1, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_shrunk_domain_keeps_the_stated_margin(r, m):
    d = Disk(0.0, r)
    pts = halton_sample(d.shrink(m), 64)
    assert (d.boundary_distance_many(pts) >= m - 1e-12).all()


def test_bbox_contains_every_sample():
    dom = Annulus(0.2j, 0.4, 1.1)
    pts = halton_sample(dom, 256)
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


def _zone_grid(sid, zone, halve):
    spec = next(spec for spec in build_scenario(sid).battery
                if isinstance(spec, LeviZone) and spec.zone == zone)
    return spec.lattice.grid(spec.h / 2.0 if halve else spec.h)


def _count_membership_rows(monkeypatch):
    rows = []
    contains = geometry.Domain.contains_many

    def counted(self, Z):
        rows.append(len(Z))
        return contains(self, Z)

    monkeypatch.setattr(geometry.Domain, "contains_many", counted)
    return rows


@pytest.mark.parametrize("build, blocks", [
    (lambda: _zone_grid("S4", "far_ring", True), 11),
    (lambda: _zone_grid("S1", "band", True), 1),
    (lambda: _zone_grid("S3", "band_slice_D1", True), 1),
    (lambda: sample_slice_grid(Polydisk((0, 0), (1.0, 1.0)), 2e-3, 1,
                               (0.3, 0.1j)), 4),
], ids=["S4_far_ring_h2", "S1_band_h2", "S3_band_slice_D1_h2", "slice_free_axis_1"])
def test_a_blocked_lattice_keeps_the_nodes_of_one_block(monkeypatch, build, blocks):
    rows = _count_membership_rows(monkeypatch)
    g = build()
    assert len(rows) == blocks
    assert max(rows) <= geometry._LATTICE_BLOCK_SITES
    with monkeypatch.context() as m:
        m.setattr(geometry, "_LATTICE_BLOCK_SITES", 2 ** 62)
        one = build()
    assert len(rows) == blocks + 1
    assert np.array_equal(g.nodes, one.nodes)
    assert np.array_equal(g.origin, one.origin)


def test_a_lattice_whose_blocks_all_miss_the_domain_raises(monkeypatch):
    rows = _count_membership_rows(monkeypatch)
    # |z| = 0.1 sqrt(2) and 0.2 bracket the ring: none of the 5 x 5 sites
    # lies inside, and each of the 5 one-slice blocks keeps nothing
    monkeypatch.setattr(geometry, "_LATTICE_BLOCK_SITES", 1)
    with pytest.raises(EmptyGridError):
        sample_grid(Annulus(0.0, 0.15, 0.2), 0.1)
    assert rows == [5] * 5


def _slices(nodes, size):
    return [nodes[lo:lo + size] for lo in range(0, len(nodes), size)]


@pytest.mark.parametrize("sites", [None, 2 ** 12], ids=["default", "4096"])
@pytest.mark.parametrize("build", [
    lambda: _zone_grid("S4", "far_ring", True),
    lambda: _zone_grid("S3", "band_slice_D1", True),
    lambda: sample_grid(Disk(0.0, 0.5), 5e-3),
], ids=["S4_far_ring_h2", "S3_band_slice_D1_h2", "disk"])
def test_a_lattice_grids_blocks_are_the_slices_of_its_joined_nodes(
        monkeypatch, build, sites):
    if sites is not None:
        monkeypatch.setattr(geometry, "_LATTICE_BLOCK_SITES", sites)
    g = build()
    nodes = g.nodes
    assert len(g) == len(nodes) and g.n == nodes.shape[1]
    assert np.array_equal(nodes, g.nodes)
    # a block size above, below and across the enumerated blocks
    for size in (1000, _EVAL_CHUNK // 32 + 1, _EVAL_CHUNK // 8 + 1, len(g) + 1):
        got = list(g.blocks(size))
        want = _slices(nodes, size)
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_a_grid_from_explicit_nodes_reads_them_as_given():
    nodes = halton_sample(Disk(0.0, 1.0), 100)
    g = Grid(nodes, 0.1, Disk(0.0, 1.0))
    assert len(g) == 100 and g.n == 1
    assert g.nodes is nodes
    assert np.array_equal(g.origin, reals(nodes[:1])[0])
    blocks = list(g.blocks(30))
    assert [len(b) for b in blocks] == [30, 30, 30, 10]
    assert all(np.shares_memory(b, nodes) for b in blocks)
    with pytest.raises(EmptyGridError):
        Grid(nodes[:0], 0.1, Disk(0.0, 1.0))


def test_an_empty_lattice_window_raises_with_any_block_size(monkeypatch):
    empty = Intersection((Disk(0.0, 0.2), Disk(5.0, 0.2)))
    for sites in (1, 2 ** 12, 2 ** 62):
        monkeypatch.setattr(geometry, "_LATTICE_BLOCK_SITES", sites)
        with pytest.raises(EmptyGridError):
            sample_grid(empty, 0.01)


def test_s4s_far_ring_at_h2_is_built_and_read_in_a_fraction_of_its_nodes():
    # the annulus 1.70 < |z| < 2.10 at 2.5e-3: 2.83 M candidates for
    # 763,976 nodes, 12.2 MB joined.  A build that held every candidate at
    # once peaked near 11 times the nodes, and joining every kept block
    # peaked at 26.7 MB traced and held the 11.7 MB array; the build now
    # filters one block of candidates at a time, the grid holds one bit per
    # candidate, and a pass holds one enumerated block at a time
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 2.2))
    h = 2.5e-3
    tracemalloc.start()
    try:
        g = _zone_grid("S4", "far_ring", True)
        held, build = tracemalloc.get_traced_memory()
        peaks = []
        for check in (min_levi_eigenvalue, laplacian_sup):
            tracemalloc.reset_peak()
            check(f, g, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert g.domain == Annulus(0.0, 1.70, 2.10) and g.h == h
    assert len(g) == 763_976
    assert build < 14e6
    assert held < 1e6
    assert max(peaks) < 12e6


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
    "polydisk": Polydisk((0.1, -0.2j), (1.0, 0.6)),
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
    box = Polydisk((0.1, -0.2j), (1.6, 1.82))
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


def _radical_inverse_digit_loop(indices, base):
    # the loop _radical_inverse replaced: % and //= per digit, stopping on
    # a full-array max
    idx = indices.astype(np.int64)
    out = np.zeros(idx.shape, dtype=float)
    denom = 1.0
    while idx.max(initial=0) > 0:
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


@pytest.mark.parametrize("base", geometry._PRIMES)
def test_the_radical_inverse_keeps_the_bits_of_the_digit_loop(base):
    # the budget of a halton_sample draw of 4096 points ends its index stream
    last = HALTON_START + 2048 + 3000 * 4096
    for idx in (np.arange(1, 200_001), np.arange(last - 5000, last + 5000),
                np.zeros(3, dtype=np.int64), np.arange(0)):
        got = geometry._radical_inverse(idx, base)
        assert got.tobytes() == _radical_inverse_digit_loop(idx, base).tobytes()


def _halton_digit_loop(dim, count, start):
    # halton before the digit table: np.stack of the digit loop's columns
    idx = np.arange(start, start + count)
    return np.stack([_radical_inverse_digit_loop(idx, geometry._PRIMES[k])
                     for k in range(dim)], axis=1)


def _table_size(base):
    # the largest power of base with at most 4096 entries
    return base ** max(k for k in range(1, 13) if base ** k <= 4096)


def test_each_digit_table_holds_the_largest_power_of_its_base_up_to_4096():
    sizes = {base: t.size for base, t in geometry._DIGIT_TABLES.items()}
    assert sizes == {base: _table_size(base) for base in geometry._PRIMES}
    assert [sizes[b] for b in (2, 3, 5, 7)] == [2 ** 12, 3 ** 7, 5 ** 5, 7 ** 4]
    for base, t in geometry._DIGIT_TABLES.items():
        want = _radical_inverse_digit_loop(np.arange(t.size), base)
        assert t.tobytes() == want.tobytes()


# a window of 3 indices centred on each base^k and base^2k a table wraps at,
# and the end of a 4096-point draw's budget
_HALTON_STARTS = sorted(
    {w for b in geometry._PRIMES for w in (_table_size(b) - 1, _table_size(b) ** 2 - 1)}
    | {HALTON_START + 2048 + 3000 * 4096 - 1})


@pytest.mark.parametrize("dim", range(1, len(geometry._PRIMES) + 1))
def test_halton_keeps_the_bits_of_the_stacked_digit_loop(dim):
    for start in _HALTON_STARTS:
        got = halton(dim, 3, start)
        assert got.flags.c_contiguous and got.shape == (3, dim)
        assert got.tobytes() == _halton_digit_loop(dim, 3, start).tobytes()
    for start, count in ((HALTON_START, 20_000), (0, 1), (5, 0)):
        got = halton(dim, count, start)
        assert got.tobytes() == _halton_digit_loop(dim, count, start).tobytes()
    with pytest.raises(ValueError, match="too large"):
        halton(len(geometry._PRIMES) + 1, 3, HALTON_START)


def _triple_boxes():
    # the bounding box of every member of every shipped smoothing triple
    for sid in ("S1", "S2", "S3", "S4"):
        for step in build_scenario(sid).steps:
            for name in ("U", "V", "W"):
                try:
                    yield f"{sid}_{step.chart_name}_{name}", getattr(step.opens, name).bbox()
                except NotImplementedError:
                    continue


_BOXES = [*_triple_boxes(),
          ("lo_-0", (np.array([-0.0, -0.0]), np.array([0.5, 0.25]))),
          ("lo_-0_flat", (np.array([-0.0, -1.0, 0.2, -0.0]),
                          np.array([0.0, 1.0, 0.3, 2.0])))]


@pytest.mark.parametrize("lo, hi", [box for _, box in _BOXES],
                         ids=[name for name, _ in _BOXES])
def test_box_points_view_the_bits_of_re_plus_1j_im(lo, hi):
    for start, count in ((0, 5), (HALTON_START, 16_640), (HALTON_START + 49_920, 3)):
        X = lo + halton(lo.size, count, start) * (hi - lo)
        want = X[:, 0::2] + 1j * X[:, 1::2]
        got = geometry._box_points(lo, hi, count, start)
        assert got.shape == want.shape and got.dtype == complex
        assert got.tobytes() == want.tobytes()
        # index 0 puts lo itself in the block: lo + 0.0 is never -0.0
        coords = got.view(float)
        assert not (np.signbit(coords) & (coords == 0.0)).any()


@pytest.mark.parametrize("n", [1, 2])
def test_the_polydisk_distance_is_the_min_of_its_margins_bit_for_bit(n):
    p = Polydisk((0.1 - 0.2j, 0.3j)[:n], (0.9, 1.3)[:n])
    col = np.array([0.0, 0.1 - 0.2j, 0.5 + 0.4j, -3.0 + 1e-300j, 2.0,
                    complex(np.inf, 0.0), complex(-np.inf, 1.0),
                    complex(0.0, np.inf), complex(np.nan, 0.0),
                    complex(0.2, np.nan)])
    rows = np.stack([col] + [np.roll(col, k) for k in range(1, n)], axis=1)
    want = np.min(np.stack(p._margins(rows), axis=0), axis=0)
    assert p.boundary_distance_many(rows).tobytes() == want.tobytes()


def _snap(X, origin, h, spacing):
    # the package's one row snap: each row's lattice index (_lattice_index),
    # merged as a node with the one zero step (_distinct_sites)
    return geometry._distinct_sites(geometry._lattice_index(X, origin, h, spacing),
                                    np.zeros((X.shape[1], 1), dtype=np.int64), origin, h)


def _lattice_sites_axis0(X, origin, h):
    # the row snap with the index bounds reduced along axis 0
    K = np.rint((X - origin) / h).astype(np.int64)
    lo = K.min(axis=0)
    K -= lo
    key = np.ravel_multi_index(tuple(K.T), K.max(axis=0) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return origin + h * (K[first] + lo), inverse


def _lattice_sites_row_major(X, origin, h, spacing):
    # the row snap on the (rows, 2n) block as given, before the indices
    # were worked on as a (2n, rows) block, with per-column bounds
    q = X - origin
    q /= h
    K = np.rint(q)
    q -= K
    off = float(np.max(np.abs(q, out=q), initial=0.0))
    if not off <= 1e-9:
        raise ParameterError(
            "stencil rows on the grid lattice",
            f"step h = {h!r}, grid spacing {spacing!r}: a row lies {off:.3g} "
            f"steps off; h must divide the spacing")
    K = K.astype(np.int64)
    if not K.shape[0]:
        return X, np.zeros(0, dtype=np.intp)
    lo = np.array([c.min() for c in K.T])
    hi = np.array([c.max() for c in K.T])
    dims = tuple(int(d) for d in hi - lo + 1)
    key = np.ravel_multi_index(tuple(c - l for c, l in zip(K.T, lo)), dims)
    box = math.prod(dims)
    if box > geometry._MARKER_SITES_PER_ROW * key.size:
        distinct, inverse = np.unique(key, return_inverse=True)
    else:
        mark = np.zeros(box, dtype=np.intp)
        mark[key] = 1
        distinct = np.flatnonzero(mark)
        np.cumsum(mark, out=mark)
        inverse = mark[key]
        inverse -= 1
    return origin + h * (np.stack(np.unravel_index(distinct, dims), axis=1) + lo), inverse


def _levi_block(sid, zone, half, block):
    # one Levi block of nodes, as min_levi_eigenvalue reads it, with the
    # grid it is read through and the stencil step
    spec = next(z for z in build_scenario(sid).battery
                if isinstance(z, LeviZone) and z.zone == zone)
    h = spec.h / 2.0 if half else spec.h
    g = spec.lattice.grid(h)
    step = _EVAL_CHUNK // 32 + 1
    return g.nodes[block * step:(block + 1) * step], g, h


def _levi_block_rows(sid, zone, half, block):
    # the block's stencil rows, node-major
    Z, g, h = _levi_block(sid, zone, half, block)
    return reals((Z[:, None, :] + geometry.stencil_offsets(g.n, h)[None, :, :])
                 .reshape(-1, g.n)), g, h


@pytest.mark.parametrize("sid, zone, half, block", [
    ("S1", "band", False, 0),
    ("S4", "far_ring", True, 3),
    ("S3", "band_slice_D1", False, 0),
    ("S1", "kink", True, 1),
    ("S4", "far_ring", True, 0),
    ("S4", "near_disk", False, 2),
    ("S3", "kink_slice_D3", True, 0),
])
def test_lattice_sites_keep_the_bits_of_axis_0_bounds(sid, zone, half, block):
    X, g, h = _levi_block_rows(sid, zone, half, block)
    sites, inverse = _snap(X, g.origin, h, g.h)
    assert sites.flags.c_contiguous
    for want_sites, want_inverse in (_lattice_sites_axis0(X, g.origin, h),
                                     _lattice_sites_row_major(X, g.origin, h, g.h)):
        assert sites.tobytes() == want_sites.tobytes()
        assert inverse.dtype == want_inverse.dtype
        assert np.array_equal(inverse, want_inverse)
    # the Levi read keys each node once and adds the stencil's integer
    # steps: the field sees the rows' sites in their order, and every
    # stencil point gets its row's value
    seen = []

    def ev(P):
        seen.append(P.copy())
        return np.sum(np.abs(P) ** 2, axis=1)

    fl = geometry.lattice_field(ScalarField(ev, Polydisk((0j,) * g.n, (5.0,) * g.n)), g, h)
    Z, _, _ = _levi_block(sid, zone, half, block)
    V = fl.eval_stencil(Z, geometry.stencil_offsets(g.n, h))
    assert reals(seen[0]).tobytes() == sites.tobytes()
    assert V.tobytes() == fl.eval_many(X.view(complex)).reshape(V.shape).tobytes()


def test_an_off_lattice_row_is_the_row_major_snaps_parameter_error():
    X, g, h = _levi_block_rows("S4", "near_disk", False, 0)
    X = X.copy()
    X[7, 1] += 0.3 * h
    errors = []
    for snap in (_snap, _lattice_sites_row_major):
        with pytest.raises(ParameterError) as err:
            snap(X, g.origin, h, g.h)
        errors.append((err.value.condition, err.value.detail))
    assert errors[0] == errors[1]
    assert "0.3 steps off" in errors[0][1]


@pytest.mark.parametrize("n", [1, 2])
def test_a_zero_centre_margin_is_the_subtracting_margin_bit_for_bit(n):
    p = Polydisk((0j,) * n, (0.9, 1.3)[:n])
    col = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 0.5 - 0.4j, -3.0 + 1e-300j,
                    complex(np.inf, 0.0), complex(-np.inf, -0.0),
                    complex(-0.0, np.inf), complex(0.0, -np.inf),
                    complex(np.nan, 0.0), complex(-0.0, np.nan)])
    rows = np.stack([col] + [np.roll(col, k) for k in range(1, n)], axis=1)
    want = [r - np.abs(rows[:, j] - c)
            for j, (c, r) in enumerate(zip(p.center_values, p.radii))]
    for got, w in zip(p._margins(rows), want, strict=True):
        assert got.tobytes() == w.tobytes()


def test_halton_sample_of_no_points_is_an_empty_block():
    for dom in (Disk(0.1, 0.5), Polydisk((0j, 1j), (0.5, 0.7))):
        pts = halton_sample(dom, 0)
        assert pts.shape == (0, dom.n) and pts.dtype == complex


def test_halton_sample_of_a_negative_count_is_a_value_error():
    with pytest.raises(ValueError, match="-3"):
        halton_sample(Disk(0.0, 1.0), -3)


def test_lattice_sites_of_no_rows_are_empty():
    sites, inverse = _snap(np.zeros((0, 2)), np.zeros(2), 0.01, 0.01)
    assert sites.shape == (0, 2)
    assert inverse.shape == (0,) and inverse.dtype == np.intp
    X, origin = np.zeros((0, 4)), np.full(4, 0.25)
    sites, inverse = _snap(X, origin, 0.01, 0.02)
    want_sites, want_inverse = _lattice_sites_row_major(X, origin, 0.01, 0.02)
    assert sites.shape == want_sites.shape == (0, 4)
    assert inverse.dtype == want_inverse.dtype and inverse.shape == (0,)


def test_lattice_sites_of_one_row_keep_the_bits_of_axis_0_bounds():
    origin = np.array([0.003, -0.25, 1.0, 0.0])
    X = origin + 0.01 * np.array([[-7.0, 12.0, 0.0, 3.0]])
    sites, inverse = _snap(X, origin, 0.01, 0.01)
    want_sites, want_inverse = _lattice_sites_axis0(X, origin, 0.01)
    assert sites.tobytes() == want_sites.tobytes()
    assert np.array_equal(inverse, want_inverse) and inverse.tolist() == [0]


def _traced_snap(X, origin, h):
    # the row snap and the peak of what it allocates
    tracemalloc.start()
    try:
        got = _snap(X, origin, h, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def _box_sites(X, origin, h):
    K = np.rint((X - origin) / h)
    return math.prod(K.max(axis=0) - K.min(axis=0) + 1)


def test_lattice_sites_of_a_sparse_box_keep_the_bits_and_a_working_set_of_the_rows(monkeypatch):
    # mass_integral merges only the indices of the edge nodes of S1's mass
    # disk and their outer neighbours, with the zero step: 3,992 indices
    # spread over the disk's whole box of 251,001 sites, where a marker
    # would take 31 times the rows' bytes
    spec = next(z for z in build_scenario("S1").battery if isinstance(z, DiskMass))
    c, R = spec.disk.center_values[0], spec.disk.radii[0]
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(c, R + 0.1))
    seen = []
    distinct = geometry._distinct_sites

    def spy(K, steps, origin, h):
        seen.append((K.copy(), steps, origin, h))
        return distinct(K, steps, origin, h)

    monkeypatch.setattr(geometry, "_distinct_sites", spy)
    mass_integral(f, spec.disk, spec.spacing)
    monkeypatch.undo()
    (K, steps, origin, h), = seen
    assert np.array_equal(steps, np.zeros((2, 1)))
    X = origin + h * K.T
    assert len(X) == 3_992 and _box_sites(X, origin, h) > 20 * len(X)
    (sites, inverse), peak = _traced_snap(X, origin, h)
    for want_sites, want_inverse in (_lattice_sites_axis0(X, origin, h),
                                     _lattice_sites_row_major(X, origin, h, h)):
        assert sites.tobytes() == want_sites.tobytes()
        assert np.array_equal(inverse, want_inverse)
    assert peak < 8 * X.nbytes


def _row_snapped_flux(f, disk, h):
    # the reference flux: the complex edge rows x + e and x, snapped as
    # given (the row-major snap), each distinct site evaluated once, outer
    # minus inner summed in direction order
    grid = sample_grid(disk, h)
    nodes = grid.nodes
    K = np.rint((reals(nodes) - grid.origin) / h).astype(np.int64)
    lo, hi = K.min(axis=0), K.max(axis=0)
    K -= lo - 1
    on_grid = np.zeros(hi - lo + 3, dtype=bool)
    on_grid[tuple(K.T)] = True
    inner, outer = [], []
    offs = geometry.stencil_offsets(1, h)[1:5]
    for e, step in zip(offs, np.rint(reals(offs) / h).astype(np.int64)):
        leaves = nodes[~on_grid[tuple((K + step).T)]]
        inner.append(leaves)
        outer.append(leaves + e)
    m = sum(map(len, outer))
    sites, inverse = _lattice_sites_row_major(reals(np.concatenate(outer + inner)),
                                              grid.origin, h, h)
    V = f.eval_many(sites.view(complex))[inverse]
    return float(np.sum(V[:m] - V[m:]))


@pytest.mark.parametrize("sid", ["S1", "S2", "S4"])
def test_the_mass_flux_keeps_the_bits_of_the_row_snapped_flux(sid):
    s = build_scenario(sid)
    res = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                             s.steps, s.params)
    spec = next(z for z in s.battery if isinstance(z, DiskMass))
    for f in spec.fields(res):  # raw, then smoothed
        got = mass_integral(f, spec.disk, spec.spacing)
        want = _row_snapped_flux(f, spec.disk, spec.spacing)
        assert got.hex() == want.hex(), (sid, f.name)


def test_a_levi_block_merges_through_a_marker_of_a_few_sites_per_row():
    # S4's far ring at h/2: the first block's box holds 0.31 sites per
    # stencil row; a marker of at most 4 intp sites per row takes at most
    # twice the bytes of the rows
    spec = next(z for z in build_scenario("S4").battery
                if isinstance(z, LeviZone) and z.zone == "far_ring")
    h = spec.h / 2.0
    g = spec.lattice.grid(h)
    Z = g.nodes[:_EVAL_CHUNK // 32 + 1]
    offs = geometry.stencil_offsets(g.n, h)
    X = reals((Z[:, None, :] + offs[None, :, :]).reshape(-1, g.n))
    assert _box_sites(X, g.origin, h) <= geometry._MARKER_SITES_PER_ROW * len(X)
    _, peak = _traced_snap(X, g.origin, h)
    assert peak < 8 * X.nbytes


def test_lattice_rows_far_apart_merge_without_a_box_sized_marker():
    # two rows 500 apart at step 0.01 span 2.5e9 sites: a marker over that
    # box would take 18.6 GiB
    origin = np.zeros(2)
    X = np.array([[0.0, 0.0], [500.0, 500.0], [0.0, 0.0]])
    (sites, inverse), peak = _traced_snap(X, origin, 0.01)
    want_sites, want_inverse = _lattice_sites_axis0(X, origin, 0.01)
    assert sites.tobytes() == want_sites.tobytes()
    assert np.array_equal(inverse, want_inverse) and inverse.tolist() == [0, 1, 0]
    assert peak < 2 ** 16
