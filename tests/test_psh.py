"""Levi forms, the mollifier, and the regularized maximum.

The frozen constants below were produced by quadratures that are independent
of the shipped code paths (dense Gauss-Legendre for the bump integral, radial
Gauss-Legendre in polar form for the kernel moments) and pin the shipped
discretizations against silent drift.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth import geometry, psh
from coversmooth.covers import ColumnField, RadialField, pushforward
from coversmooth.errors import DomainError, ParameterError, UnsupportedDimensionError
from coversmooth.geometry import (
    Annulus,
    Disk,
    Domain,
    Grid,
    Intersection,
    LevelRegion,
    MappedRegion,
    Polydisk,
    ScalarField,
    discrete_laplacian_many,
    halton_sample,
    lattice_field,
    mass_integral,
    sample_grid,
    sample_slice_grid,
)
from coversmooth.psh import (
    _EVAL_CHUNK,
    BUMP_INTEGRAL,
    MOLL_ORDER,
    _axis_product,
    _node_groups,
    bump_profile,
    c2_ratio,
    hermitian_min_eigenvalues,
    laplacian_sup,
    levi_form_many,
    min_levi_eigenvalue,
    mollifier_kernel,
    mollify,
    translates_stay_inside,
    reg_max_many,
    regmax_kernel,
)
from coversmooth.scenarios import C2Zone, Lattice, LeviZone, build_scenario
from coversmooth.smoothing import smooth_pushforward

# int_{-1}^{1} exp(-1/(1-t^2)) dt, Gauss-Legendre order 200
BUMP_INTEGRAL_FROZEN = 0.443993816169

# second moment of the normalized bump mollifier on the unit ball of R^{2n},
# continuum value via radial quadrature and the shipped lattice kernels
M2_CONTINUUM = {2: 0.261311203421, 4: 0.391048442228}
M2_DISCRETE = {(2, 8): 0.262566820262, (4, 8): 0.393707629037}
KERNEL_NODE_COUNTS = {(2, 8): 40, (4, 8): 304, (4, 6): 80}

# M_eta(0, 0) = c0 * eta for the order-16 quadrature
REGMAX_C0_ORDER16 = 0.226932059917525


def _bump(t):
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def test_bump_integral_matches_independent_quadrature():
    x, w = np.polynomial.legendre.leggauss(200)
    oracle = float(np.sum(w * bump_profile(x)))
    assert abs(oracle - BUMP_INTEGRAL_FROZEN) < 1e-9
    assert abs(BUMP_INTEGRAL - BUMP_INTEGRAL_FROZEN) < 1e-9


def test_mollifier_second_moment_against_polar_oracle():
    """Radial oracle: m2 = int r^2 rho r^{d-1} dr / int rho r^{d-1} dr."""
    x, w = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    for two_n in (2, 4):
        sdim = two_n - 1
        num = float(np.sum(wr * r ** 2 * _bump(r) * r ** sdim))
        den = float(np.sum(wr * _bump(r) * r ** sdim))
        oracle = num / den
        assert oracle == pytest.approx(M2_CONTINUUM[two_n], abs=1e-9)
        kern = mollifier_kernel(two_n, 8)
        # the lattice kernel carries a small but stable discretization offset
        assert kern.m2_unit == pytest.approx(M2_DISCRETE[(two_n, 8)], abs=1e-9)
        assert abs(kern.m2_unit - oracle) < 5e-3


def test_mollifier_kernel_shapes_and_weight_normalization():
    for (two_n, order), count in KERNEL_NODE_COUNTS.items():
        kern = mollifier_kernel(two_n, order)
        assert kern.offsets.shape == (count, two_n // 2)
        assert kern.weights.shape == (count,)
        assert float(kern.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def _unpruned_kernel(two_n, order):
    """The tensor kernel before its weightless nodes are dropped: every
    Gauss-Legendre node inside the unit ball, weights normalized to mass
    one, and their second moment."""
    x, w = np.polynomial.legendre.leggauss(order)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([x] * two_n), indexing="ij")], axis=1)
    wt = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([w] * two_n), indexing="ij")],
                          axis=1), axis=1)
    r = np.linalg.norm(pts, axis=1)
    rho = bump_profile(r)
    inside = rho > 0.0
    pts, r = pts[inside], r[inside]
    full = wt[inside] * rho[inside]
    full = full / full.sum()
    m2 = float(np.sum(full * r * r))
    return psh.MollifierKernel(pts[:, 0::2] + 1j * pts[:, 1::2], full, m2)


@pytest.mark.parametrize("two_n, order", sorted(KERNEL_NODE_COUNTS))
def test_the_kernel_drops_only_nodes_below_2_53_of_the_heaviest_and_keeps_the_bits(
        two_n, order):
    kern, full = mollifier_kernel(two_n, order), _unpruned_kernel(two_n, order)
    kept = full.weights >= 2.0 ** -53 * full.weights.max()
    assert np.array_equal(kern.offsets, full.offsets[kept])
    assert kern.weights.tobytes() == full.weights[kept].tobytes()
    assert kern.m2_unit == full.m2_unit
    # the n = 1 kernel keeps all its nodes; for n = 2 a dropped node weighs
    # under 2^-53 of the lightest kept one
    assert bool(kept.all()) == (two_n == 2)
    if two_n == 4:
        assert full.weights[~kept].max() < 2.0 ** -53 * kern.weights.min()


def test_mollify_shifts_a_quadratic_by_exactly_eps2_m2():
    # for u = |z|^2 the averaged increment is eps^2 times the kernel moment
    dom = Disk(0.0, 1.0)
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom, name="sq")
    eps = 0.07
    fe = mollify(f, eps)
    kern = mollifier_kernel(2, 8)
    pts = np.array([[0.0j], [0.3 + 0.1j], [-0.5 + 0.2j]])
    d = fe.eval_many(pts) - f.eval_many(pts)
    assert np.max(np.abs(d - eps ** 2 * kern.m2_unit)) < 1e-12


def test_mollify_has_no_order_for_three_variables():
    dom = Polydisk((0, 0, 0), (1.0, 1.0, 1.0))
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
    with pytest.raises(UnsupportedDimensionError):
        mollify(f, 0.1)


def test_mollify_shrinks_the_valid_domain():
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0), name="sq")
    fe = mollify(f, 0.07)
    assert not fe.valid_on.contains_many(np.array([[0.95 + 0j]]))[0]
    assert fe.valid_on.contains_many(np.array([[0.9 + 0j]]))[0]


def test_mollify_keeps_a_kinked_max_psh():
    def kinked(Z):
        r2 = np.abs(Z[:, 0]) ** 2
        return np.maximum(r2, 1.2 * r2 - 0.02)

    f = ScalarField(kinked, Disk(0.0, 0.8), name="kinked")
    fe = mollify(f, 0.05)
    g = sample_grid(Disk(0.0, 0.5), 8e-3)
    rep = min_levi_eigenvalue(fe, g, 4e-3)
    assert rep.min_eigenvalue >= -1e-6


def test_levi_of_planar_cone_matches_closed_form():
    """For u = 2|z| the density is u_rr + u_r / r over 4, i.e. 1 / (2|z|)."""
    g = ScalarField(lambda Z: 2.0 * np.abs(Z[:, 0]), Disk(0.0, 2.0), name="2r")
    z0 = 0.7 + 0.2j
    L = levi_form_many(g, np.array([[z0]]), 1e-3)[0]
    assert L[0, 0].real == pytest.approx(1.0 / (2.0 * abs(z0)), rel=1e-5)


def test_levi_of_modulus_in_two_variables():
    # |F| with F = z1: the only nonzero entry is 1 / (4 |z1|)
    f = ScalarField(lambda Z: np.abs(Z[:, 0]), Polydisk((0, 0), (2, 2)), name="m")
    p0 = np.array([[0.8 + 0.1j, -0.3 + 0.4j]])
    L = levi_form_many(f, p0, 1e-3)[0]
    assert L[0, 0].real == pytest.approx(1.0 / (4.0 * abs(0.8 + 0.1j)), rel=1e-5)
    assert abs(L[1, 1]) < 1e-12
    assert abs(L[0, 1]) < 1e-12


def test_levi_annihilates_pluriharmonic_cubic():
    f = ScalarField(lambda Z: np.real(Z[:, 0] ** 3), Disk(0.0, 2.0), name="h")
    L = levi_form_many(f, np.array([[0.7 + 0.2j]]), 1e-3)[0]
    assert abs(L[0, 0]) < 1e-9


def test_levi_evaluates_each_distinct_stencil_point_once():
    # neighbouring lattice nodes share stencil points; read through the
    # lattice, each is evaluated once, and the Levi forms must equal those
    # of the nodes taken one at a time, bit for bit
    seen = []

    def quartic(Z):
        seen.append(Z.copy())
        return np.abs(Z[:, 0]) ** 4 + np.real(Z[:, 0] ** 2 * np.conj(Z[:, 1]))

    dom = Polydisk((0, 0), (2, 2))
    f = ScalarField(quartic, dom, name="q4")
    h = 0.25
    Z = np.array([[0.0, 0.3j], [0.25, 0.3j], [0.25j, 0.3j], [-0.25, 0.3j]])
    g = Grid(Z, h, dom)
    L = levi_form_many(lattice_field(f, g, h), Z, h)
    P = np.concatenate(seen)
    assert P.shape[0] == np.unique(P.view(np.int64), axis=0).shape[0]
    assert P.shape[0] < 25 * Z.shape[0]
    for k in range(Z.shape[0]):
        one = lattice_field(f, Grid(Z[k:k + 1], h, dom, g.origin), h)
        assert np.array_equal(levi_form_many(one, Z[k:k + 1], h)[0], L[k])


@pytest.mark.parametrize("n", [1, 2])
def test_levi_and_laplacian_read_one_stencil_table_as_given(n):
    # off the lattice every stencil row is evaluated as given; the Levi
    # diagonal and the Laplacian read the same rows, so 4 * sum_j Re L_jj
    # equals the Laplacian up to rounding
    seen = []

    def quartic(Z):
        seen.append(Z.shape[0])
        return np.abs(Z[:, 0]) ** 4 + np.real(Z[:, 0] ** 2 * np.conj(Z[:, -1]))

    dom = Disk(0.0, 2.0) if n == 1 else Polydisk((0, 0), (2, 2))
    f = ScalarField(quartic, dom, name="q4")
    h = 1e-2
    Z = halton_sample(Disk(0.0, 1.0) if n == 1 else Polydisk((0, 0), (1, 1)), 37)
    L = levi_form_many(f, Z, h)
    assert sum(seen) == Z.shape[0] * (5 if n == 1 else 25)
    for k in range(Z.shape[0]):
        assert np.array_equal(levi_form_many(f, Z[k:k + 1], h)[0], L[k])
    trace = 4.0 * np.einsum("mjj->m", L).real
    assert np.max(np.abs(trace - discrete_laplacian_many(f, Z, h))) < 1e-9


def _square(half: float) -> Intersection:
    """The square max(|Re z|, |Im z|) < half, boxed by a disk holding it."""
    return Intersection((Disk(0.0, 2.0 * half), LevelRegion(
        lambda Z: np.maximum(np.abs(Z[:, 0].real), np.abs(Z[:, 0].imag)), half, 1)))


@pytest.mark.parametrize("check, sites", [
    (min_levi_eigenvalue, lambda k: k * k + 4 * k),
    (laplacian_sup, lambda k: k * k + 4 * k),
    (lambda f, g, h: mass_integral(f, g.domain, h), lambda k: 8 * k - 4),
], ids=["min_levi_eigenvalue", "laplacian_sup", "mass_integral"])
def test_lattice_checks_evaluate_each_distinct_site_once(check, sites):
    # a k x k lattice in one block: the 5-point stencils cover k^2 + 4k
    # sites, the mass flux its 4k - 4 edge nodes and their 4k outer
    # neighbours; membership is tested on those sites alone
    seen = []

    def sq(Z):
        seen.append(Z.copy())
        return np.abs(Z[:, 0]) ** 2

    k, h = 21, 0.01
    g = sample_grid(_square(0.105), h)
    assert len(g) == k * k
    dom = _Counted(Disk(0.0, 1.0))
    check(ScalarField(sq, dom), g, h)
    P = np.concatenate(seen)
    assert P.shape[0] == sites(k)
    assert np.unique(P.view(np.int64), axis=0).shape[0] == P.shape[0]
    assert sum(dom.rows) == P.shape[0]


class _Counted(Domain):
    """A domain that records how many rows each membership test reads."""

    def __init__(self, inner):
        self.inner, self.n, self.rows = inner, inner.n, []

    def boundary_distance_many(self, Z):
        self.rows.append(len(Z))
        return self.inner.boundary_distance_many(Z)


@pytest.mark.parametrize("check", [True, False])
def test_a_read_of_a_lattice_field_tests_its_snapped_sites_once(check):
    # 305 nodes, each its own site: one membership test of the 305 snapped
    # sites, none of the rows as given, whatever check says
    g = sample_grid(Disk(0.0, 0.1), 0.01)
    assert len(g) == 305
    dom = _Counted(Disk(0.0, 1.0))
    fl = lattice_field(ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom), g, g.h)
    vals = fl.eval_many(g.nodes, check=check)
    assert dom.rows == [305]
    assert vals.tobytes() == fl.eval_stencil(g.nodes, np.zeros((1, 1)))[:, 0].tobytes()
    outside = lattice_field(ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2,
                                        Disk(0.0, 0.05)), g, g.h)
    with pytest.raises(DomainError):
        outside.eval_many(g.nodes, check=check)


def test_a_lattice_site_outside_the_domain_raises():
    g = sample_grid(Disk(0.0, 0.05), 0.01)
    # the nodes reach |z| = 0.04 and their stencils 0.05
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 0.045))
    with pytest.raises(DomainError):
        min_levi_eigenvalue(f, g, 0.01)


def test_a_node_levi_form_does_not_depend_on_its_block():
    # two variables, slice lattice, stencil step half the spacing
    f = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 3 + np.abs(Z[:, 1]) ** 2 * np.cos(Z[:, 0].real)
        + np.real(Z[:, 0] ** 2 * np.conj(Z[:, 1])), Polydisk((0, 0), (2, 2)))
    g = sample_slice_grid(Polydisk((0, 0), (1, 0.3)), 0.05, 1, (0.3 - 0.1j, 0.2j))
    h = g.h / 2.0
    L = levi_form_many(lattice_field(f, g, h), g.nodes, h)
    eigs = []
    for k in range(len(g)):
        one = Grid(g.nodes[k:k + 1], g.h, g.domain, g.origin)
        L1 = levi_form_many(lattice_field(f, one, h), one.nodes, h)[0]
        assert np.array_equal(L1, L[k])
        eigs.append(min_levi_eigenvalue(f, one, h).min_eigenvalue)
    assert min_levi_eigenvalue(f, g, h).min_eigenvalue == min(eigs)


@pytest.mark.parametrize("cut", [0.5, -np.inf], ids=["part", "all"])
def test_a_nan_on_the_lattice_is_what_both_checks_report(cut):
    # |z|^2, NaN where Re z > cut; the oracle is one unblocked Levi pass
    def ev(Z):
        v = np.abs(Z[:, 0]) ** 2
        v[Z[:, 0].real > cut] = np.nan
        return v

    f = ScalarField(ev, Disk(0.0, 1.0))
    g = sample_grid(Disk(0.0, 0.9), 5e-3)
    h = g.h
    eigs = hermitian_min_eigenvalues(levi_form_many(lattice_field(f, g, h), g.nodes, h))
    first = int(np.flatnonzero(np.isnan(eigs))[0])
    if cut > 0:
        assert first > _EVAL_CHUNK // 32 + 1  # past the first Levi block
    rep = min_levi_eigenvalue(f, g, h)
    assert np.isnan(rep.min_eigenvalue)
    assert rep.argmin_location == tuple(complex(c) for c in g.nodes[first])
    assert np.isnan(laplacian_sup(f, g, h))


_ONE_NODE = np.array([[0.1 + 0j]])
_STENCIL_OPS = {
    "levi_form_many": lambda f, h: levi_form_many(f, _ONE_NODE, h),
    "discrete_laplacian_many": lambda f, h: discrete_laplacian_many(f, _ONE_NODE, h),
    "laplacian_sup": lambda f, h: laplacian_sup(f, Grid(_ONE_NODE, h, f.valid_on), h),
    # a disk five steps wide, so that the lattice site cap does not refuse it
    "mass_integral": lambda f, h: mass_integral(f, Disk(0.0, 5.0 * h), h),
}


# levi_form_many, the first operator checked, keeps the bare step ids
@pytest.mark.parametrize("op, h", [
    pytest.param(op, h, id=h_id if op == "levi_form_many" else f"{op}-{h_id}")
    for op in _STENCIL_OPS for h, h_id in ((1e-200, "1e-200"), (1e-160, "1e-160"))])
def test_a_step_whose_inverse_square_overflows_is_a_parameter_error(op, h):
    # h*h underflows to 0 at 1e-200 and to a subnormal whose inverse is inf
    # at 1e-160; both stencil operators check the step in stencil_offsets
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0))
    with pytest.raises(ParameterError) as err:
        _STENCIL_OPS[op](f, h)
    assert err.value.condition == "1 / (h * h) finite"


def test_a_step_that_does_not_divide_the_spacing_raises():
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0))
    g = sample_grid(Disk(0.0, 0.05), 8e-3)
    for check in (min_levi_eigenvalue, laplacian_sup):
        with pytest.raises(ParameterError) as err:
            check(f, g, 3e-3)
        assert err.value.condition == "stencil rows on the grid lattice"


@pytest.mark.parametrize("n", [1, 2])
def test_hermitian_min_eigenvalues_match_eigvalsh(n):
    # the closed forms; the error is relative to each matrix's largest
    # |eigenvalue|
    rng = np.random.default_rng(20050117 + n)
    A = rng.normal(size=(500, n, n)) + 1j * rng.normal(size=(500, n, n))
    H = 0.5 * (A + np.conj(np.transpose(A, (0, 2, 1))))
    want = np.linalg.eigvalsh(H)
    scale = np.max(np.abs(want), axis=1)
    got = hermitian_min_eigenvalues(H)
    assert got.shape == (500,)
    assert np.all(np.abs(got - want[:, 0]) <= 1e-12 * scale)


def test_hermitian_min_eigenvalues_refuse_n_above_2():
    with pytest.raises(UnsupportedDimensionError):
        hermitian_min_eigenvalues(np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_min_levi_eigenvalue_report():
    f = ScalarField(lambda Z: 2.0 * np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0), name="q")
    g = sample_grid(Disk(0.0, 0.4), 0.02)
    rep = min_levi_eigenvalue(f, g, 0.01)
    assert rep.min_eigenvalue == pytest.approx(2.0, rel=1e-6)
    assert len(rep.argmin_location) == 1


def test_laplacian_sup_of_quadratic():
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.0), name="sq")
    g = sample_grid(Disk(0.0, 0.4), 0.02)
    assert laplacian_sup(f, g, 0.01) == pytest.approx(4.0, abs=1e-9)


def test_c2_refinement_ratio_separates_kink_from_smooth():
    gh = sample_grid(Disk(0.0, 0.05), 0.01)
    gh2 = sample_grid(Disk(0.0, 0.05), 0.005)
    kink = ScalarField(lambda Z: 2.0 * np.abs(Z[:, 0]), Disk(0.0, 2.0), name="k")
    smooth = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 2.0), name="s")
    assert c2_ratio(laplacian_sup(kink, gh, 0.01), laplacian_sup(kink, gh2, 0.005)) >= 1.9
    assert c2_ratio(laplacian_sup(smooth, gh, 0.01), laplacian_sup(smooth, gh2, 0.005)) <= 1.1


def test_c2_ratio_guards_a_vanishing_coarse_sup():
    assert c2_ratio(0.0, 0.0) == 1.0
    assert c2_ratio(0.0, 3.0) == np.inf
    assert c2_ratio(2.0, 3.0) == 1.5
    gh = sample_grid(Disk(0.0, 0.05), 0.01)
    gh2 = sample_grid(Disk(0.0, 0.05), 0.005)
    flat = ScalarField(lambda Z: np.full(Z.shape[0], 3.0), Disk(0.0, 2.0))
    assert c2_ratio(laplacian_sup(flat, gh, 0.01), laplacian_sup(flat, gh2, 0.005)) == 1.0


def _reg_max_one(t1, t2, eta):
    """reg_max_many on one-element arrays, as a float."""
    return float(reg_max_many(np.array([t1]), np.array([t2]), eta)[0])


def test_regmax_kernel_fields_and_frozen_c0():
    kern = regmax_kernel()
    assert kern.nodes.shape == (16,)
    assert kern.weights.shape == (16,)
    # M_eta(t, t) = t + c0 eta; frozen regression for the order-16 rule
    c0 = _reg_max_one(0.0, 0.0, 1.0)
    assert c0 == pytest.approx(REGMAX_C0_ORDER16, abs=1e-12)
    for t, eta in ((1.3, 0.25), (-4.0, 1e-3)):
        assert _reg_max_one(t, t, eta) == pytest.approx(t + c0 * eta, rel=1e-12)


finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
etas = st.floats(1e-4, 2.0, allow_nan=False, allow_infinity=False)


@given(finite, finite, etas)
@settings(max_examples=200, deadline=None)
def test_regmax_sits_between_max_and_max_plus_eta(a, b, eta):
    m = _reg_max_one(a, b, eta)
    assert max(a, b) - 1e-12 <= m <= max(a, b) + eta + 1e-12


@given(finite, finite, etas)
@settings(max_examples=200, deadline=None)
def test_regmax_is_symmetric(a, b, eta):
    assert _reg_max_one(a, b, eta) == pytest.approx(
        _reg_max_one(b, a, eta), abs=1e-12
    )


@given(finite, finite, finite, etas)
@settings(max_examples=200, deadline=None)
def test_regmax_translation_equivariance(a, b, c, eta):
    assert _reg_max_one(a + c, b + c, eta) == pytest.approx(
        _reg_max_one(a, b, eta) + c, abs=1e-9
    )


@given(finite, finite, st.floats(0, 10, allow_nan=False), st.floats(0, 10, allow_nan=False), etas)
@settings(max_examples=200, deadline=None)
def test_regmax_monotone_in_both_arguments(a, b, da, db, eta):
    assert _reg_max_one(a + da, b + db, eta) >= _reg_max_one(a, b, eta) - 1e-12


@given(finite, st.floats(1e-3, 5, allow_nan=False), etas, st.booleans())
@settings(max_examples=200, deadline=None)
def test_regmax_exact_max_outside_the_switching_tube(a, gap, eta, sign):
    # a strict separation |t1 - t2| > 2 eta collapses to the plain maximum,
    # bit for bit (the gap keeps rounding from re-entering the tube)
    b = a + (1.0 if sign else -1.0) * (2.0 * eta + gap)
    assert _reg_max_one(a, b, eta) == max(a, b)


@given(finite, finite, finite, finite, etas)
@settings(max_examples=200, deadline=None)
def test_regmax_midpoint_convexity(a1, b1, a2, b2, eta):
    mid = _reg_max_one(0.5 * (a1 + a2), 0.5 * (b1 + b2), eta)
    avg = 0.5 * (_reg_max_one(a1, b1, eta) + _reg_max_one(a2, b2, eta))
    assert mid <= avg + 1e-9


def test_reg_max_many_matches_scalar():
    rng = np.random.default_rng(7)
    T1 = rng.uniform(-5, 5, 64)
    T2 = rng.uniform(-5, 5, 64)
    M = reg_max_many(T1, T2, 0.3)
    for i in (0, 13, 40, 63):
        assert M[i] == pytest.approx(_reg_max_one(T1[i], T2[i], 0.3), abs=1e-14)


def test_reg_max_many_gives_a_pair_the_same_bits_alone_and_in_its_block():
    # most pairs lie within 2 eta of each other, in the quadrature branch
    rng = np.random.default_rng(11)
    eta = 0.01
    T1 = rng.uniform(-1.0, 1.0, 2000)
    T2 = T1 + rng.uniform(-3.0 * eta, 3.0 * eta, 2000)
    whole = reg_max_many(T1, T2, eta)
    alone = [reg_max_many(T1[i:i + 1], T2[i:i + 1], eta) for i in range(2000)]
    assert np.mean(np.abs(T1 - T2) < 2.0 * eta) > 0.6
    assert np.concatenate(alone).tobytes() == whole.tobytes()


def _reg_max_fields(u, v, eta):
    """Pointwise regularized maximum of two fields on u's domain."""
    return ScalarField(lambda Z: reg_max_many(u.eval_many(Z), v.eval_many(Z), eta),
                       u.valid_on)


def test_reg_max_fields_preserves_psh_across_the_switch():
    dom = Disk(0.0, 0.8)
    u = ScalarField(lambda Z: np.abs(Z[:, 0] - 0.2) ** 2, dom, name="u")
    v = ScalarField(lambda Z: np.abs(Z[:, 0] + 0.2) ** 2 + 0.05, dom, name="v")
    w = _reg_max_fields(u, v, 0.05)
    g = sample_grid(Disk(0.0, 0.5), 8e-3)
    rep = min_levi_eigenvalue(w, g, 4e-3)
    assert rep.min_eigenvalue >= -1e-6


class _CheckSpy(ScalarField):
    """A field that records the check flag of every evaluation."""

    def __init__(self, f):
        super().__init__(f.evaluator, f.valid_on, name=f.name)
        self.checks = []

    def eval_many(self, Z, check=True):
        self.checks.append(check)
        return super().eval_many(Z, check=check)


def _unit_level_disk(grad_scale: float) -> Intersection:
    """{|z|^2 < 1} with the gauge (1 - |z|^2) / grad_scale, boxed by the
    disk of radius 2, which does not bind at the points tested below."""
    return Intersection((Disk(0.0, 2.0), LevelRegion(
        lambda Z: np.abs(Z[:, 0]) ** 2, 1.0, 1, grad_scale=grad_scale)))


@pytest.mark.parametrize("dom, eps, proved", [
    (Disk(0.0, 1.0), 0.07, True),
    (Disk(0.3 - 0.2j, 0.8), 0.07, True),
    (Polydisk((0.1, -0.2j), (1.0, 0.6)), 0.07, True),
    (Disk(0.0, 1.0), 1e-300, False),    # no room for rounding
    (_unit_level_disk(2.0), 0.07, False),
    (Intersection((Disk(0.0, 1.0), MappedRegion(Disk(0.0, 2.0), lambda Z: Z, 1))),
     0.07, False),
    # metric gauges, but the proof is made for polydisks only
    (Annulus(0.0, 0.2, 1.0), 0.07, False),
    (Intersection((Disk(0.0, 1.0), Disk(0.3, 1.0))).shrink(0.02), 0.07, False),
])
def test_mollify_checks_its_translates_only_where_the_shrink_is_unproved(dom, eps, proved):
    kern = mollifier_kernel(2 * dom.n, MOLL_ORDER[dom.n])
    reach = float(np.max(np.abs(kern.offsets)))
    assert translates_stay_inside(dom, eps, reach) is proved
    plain = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
    f = _CheckSpy(plain)
    fe = mollify(f, eps)
    f.checks.clear()
    Z = halton_sample(fe.valid_on, 50)
    vals = fe.eval_many(Z)
    assert f.checks == [not proved]
    assert np.array_equal(vals, mollify(plain, eps).eval_many(Z))


def test_mollify_on_an_undeclared_domain_raises_when_a_translate_escapes():
    # the gauge 10 (1 - |z|^2) overstates the distance to the unit circle:
    # the shrink by 0.5 keeps |z| < 0.9747, whose translates reach 1.46
    dom = _unit_level_disk(0.1)
    assert not translates_stay_inside(dom, 0.5, 0.9)
    fe = mollify(ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom), 0.5)
    z = np.array([[0.95 + 0j]])
    assert fe.valid_on.contains_many(z)[0]
    with pytest.raises(DomainError):
        fe.eval_many(z)


def _pushforward(sid: str, chart: str) -> tuple:
    """A shipped scenario's pushed-down potential on one downstairs chart,
    with the scenario's mollifier radius."""
    s = build_scenario(sid)
    pair = next(p for p in s.cover if p.downstairs_name == chart)
    f = s.upstairs.chart(pair.upstairs_name).potential
    return pushforward(pair.cover, f), s.params.eps


def _row_major_mollify(f, eps, Z):
    """mollify's translates built row-major ((points, K, n)) in the same
    blocks and summed by BLAS: the memory reference for the column layout.
    Its kernel sum is not mollify's fold, so its bits are not compared."""
    kern = mollifier_kernel(2 * f.n, MOLL_ORDER[f.n])
    K, n = kern.offsets.shape
    block = _EVAL_CHUNK // K
    out = np.zeros(Z.shape[0])
    for lo in range(0, Z.shape[0], block):
        Zb = Z[lo:lo + block]
        W = (Zb[:, None, :] - eps * kern.offsets[None]).reshape(-1, n)
        vals = f.eval_many(W, check=False).reshape(Zb.shape[0], K)
        out[lo:lo + block] = vals @ kern.weights
    return out


def _pointwise_mollify(f, eps, Z):
    """mollify's value at each row z of Z from z alone: f at z's K
    translates z - eps * o, folded one scalar at a time in the order of
    the kernel's node groups."""
    kern = mollifier_kernel(2 * f.n, MOLL_ORDER[f.n])
    order = np.concatenate([nodes.ravel() for _, nodes in _node_groups(kern.offsets)])
    offsets, weights = kern.offsets[order], kern.weights[order]
    out = []
    for z in Z:
        vals = f.eval_many(z - eps * offsets, check=False)
        acc = weights[0] * vals[0]
        for w, v in zip(weights[1:], vals[1:]):
            acc += w * v
        out.append(acc)
    return np.array(out)


# S1's power pushforward and S4's near chart (radial, n = 1) and S3's D1
# closed form (n = 2)
_MOLLIFIED = [("S1", "w"), ("S4", "near"), ("S3", "D1")]


def _block(f, fe):
    """Points in one of mollify's blocks: a radial field's 8 + 8 axis rows
    share the workspace with its (K, points) table."""
    K = fe.meta["kernel_nodes"]
    return _EVAL_CHUNK // (K + 16 if isinstance(f, RadialField) else K)


@pytest.mark.parametrize("sid, chart", _MOLLIFIED, ids=[s for s, _ in _MOLLIFIED])
def test_mollify_is_bit_identical_to_a_pointwise_fold_in_kernel_order(sid, chart):
    # calls of one block, one short of a block, one past it and several
    # blocks: each point is the oracle's point alone, and the row path's
    f, eps = _pushforward(sid, chart)
    fe = mollify(f, eps)
    B = _block(f, fe)
    Z = halton_sample(fe.valid_on, 3 * B + 7)
    want = _pointwise_mollify(f, eps, Z)
    for m in (1, B - 1, B, B + 1, 3 * B + 7):
        assert fe.eval_many(Z[:m]).tobytes() == want[:m].tobytes(), m
    assert mollify(_row_path(f), eps).eval_many(Z).tobytes() == want.tobytes()


def _unpruned_fold(f, eps, Z):
    """mollify's value at the rows of Z on the unpruned kernel, the 96
    weightless n = 2 nodes included: f at each node's translates, folded
    node by node in _node_groups order of the full kernel."""
    kern = _unpruned_kernel(2 * f.n, MOLL_ORDER[f.n])
    order = np.concatenate([nodes.ravel() for _, nodes in _node_groups(kern.offsets)])
    steps, weights = eps * kern.offsets[order], kern.weights[order]
    acc = weights[0] * f.eval_many(Z - steps[0], check=False)
    for s, w in zip(steps[1:], weights[1:]):
        acc += w * f.eval_many(Z - s, check=False)
    return acc


_N2_CHARTS = [("S2", "sp"), ("S3", "D1"), ("S3", "D3")]


@pytest.mark.parametrize("sid, chart", _N2_CHARTS, ids=[f"{s}_{c}" for s, c in _N2_CHARTS])
def test_the_pruned_kernel_gives_the_unpruned_folds_bits(sid, chart):
    # the dropped terms sit below half an ulp of the running sum, so both
    # n = 2 paths keep the full kernel's bits: blocks of one, one short of
    # and one past a block, and over 2,000 points
    f, eps = _pushforward(sid, chart)
    fe = mollify(f, eps)
    B = _EVAL_CHUNK // fe.meta["kernel_nodes"]
    Z = halton_sample(fe.valid_on, 2 * B + 7)
    want = _unpruned_fold(f, eps, Z)
    for m in (1, B - 1, B + 1, 2 * B + 7):
        assert fe.eval_many(Z[:m]).tobytes() == want[:m].tobytes(), m
    assert mollify(_row_path(f), eps).eval_many(Z).tobytes() == want.tobytes()


class _ColumnSpy(ScalarField):
    """A field that asserts each coordinate column it is given is contiguous,
    and counts the rows."""

    def __init__(self, f):
        super().__init__(f.evaluator, f.valid_on, name=f.name)
        self.rows = 0

    def eval_many(self, Z, check=True):
        for j in range(Z.shape[1]):
            assert Z[:, j].strides[0] == Z.itemsize
        self.rows += Z.shape[0]
        return super().eval_many(Z, check=check)


@pytest.mark.parametrize("sid, chart", _MOLLIFIED, ids=[s for s, _ in _MOLLIFIED])
def test_mollify_hands_its_field_contiguous_coordinate_columns(sid, chart):
    f, eps = _pushforward(sid, chart)
    spy = _ColumnSpy(f)
    fe = mollify(spy, eps)
    K = fe.meta["kernel_nodes"]
    Z = halton_sample(fe.valid_on, _EVAL_CHUNK // K + 1)  # two blocks
    assert np.array_equal(fe.eval_many(Z), mollify(f, eps).eval_many(Z))
    assert spy.rows == Z.shape[0] * K


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_column_layout_adds_no_copy():
    # a block's translates are 8 MB here; a copy of them held while the
    # field evaluates lifts the peak about 1.4x over the row-major build
    f, eps = _pushforward("S3", "D1")
    fe = mollify(f, eps)
    Z = halton_sample(fe.valid_on, 4096)
    oracle = _traced_peak(lambda: _row_major_mollify(f, eps, Z))
    assert _traced_peak(lambda: fe.eval_many(Z)) <= 1.1 * oracle


@pytest.mark.parametrize("n", sorted(MOLL_ORDER))
def test_the_kernel_nodes_ascend_through_the_product_of_their_axes(n):
    kern = mollifier_kernel(2 * n, MOLL_ORDER[n])
    axes, flat = _axis_product(kern.offsets)
    assert len(axes) == n
    assert np.all(np.diff(flat) > 0)
    index = np.unravel_index(flat, tuple(a.size for a in axes))
    for j, a in enumerate(axes):
        assert np.array_equal(a, np.unique(kern.offsets[:, j]))
        assert np.array_equal(a[index[j]], kern.offsets[:, j])
    # n = 1: every node is its own axis offset; n = 2: 12 offsets per axis
    # carry the 80 nodes
    sizes = {1: (40,), 2: (12, 12)}[n]
    assert tuple(a.size for a in axes) == sizes


def test_kernel_nodes_out_of_product_order_are_refused():
    offsets = mollifier_kernel(4, 6).offsets
    with pytest.raises(ValueError, match="per-axis product"):
        _axis_product(offsets[::-1])
    with pytest.raises(ValueError, match="per-axis product"):
        _axis_product(np.vstack([offsets[:1], offsets]))


@pytest.mark.parametrize("n", sorted(MOLL_ORDER))
def test_the_node_groups_place_every_kernel_node_once_in_kernel_order(n):
    kern = mollifier_kernel(2 * n, MOLL_ORDER[n])
    groups = _node_groups(kern.offsets)
    placed = np.concatenate([nodes.ravel() for _, nodes in groups])
    assert np.array_equal(np.sort(placed), np.arange(kern.offsets.shape[0]))
    for cols, nodes in groups:
        assert nodes.shape == tuple(c.size for c in cols)
        # the raveled product runs through its nodes in kernel order
        assert np.all(np.diff(nodes.ravel()) > 0)
        for j, c in enumerate(np.meshgrid(*cols, indexing="ij")):
            assert np.array_equal(kern.offsets[nodes, j], c)
    # n = 1: one group of 40; n = 2: the 80 nodes and no other cell
    shapes = {1: [(40,)], 2: [(8, 4), (4, 12)]}[n]
    assert [nodes.shape for _, nodes in groups] == shapes


def _row_path(f):
    """f as a field of no special type, which mollify takes row by row."""
    return ScalarField(f.evaluator, f.valid_on, name=f.name)


# S2's chart (|s|^2 + |s^2 - 4p|) and S3's D1 (its log1p form)
_CLOSED_FORMS = [("S2", "sp"), ("S3", "D1")]


def _product_inputs(dom, B, seed):
    """Rows of dom: none, one, one past a block, the branch locus s^2 = 4p,
    and random rows of dom's box."""
    rng = np.random.default_rng(seed)
    lo, hi = dom.bbox()

    def inside(Z, m):
        Z = Z[dom.contains_many(Z)][:m]
        assert Z.shape[0] == m
        return Z

    X = rng.uniform(lo, hi, size=(4 * (B + 1), lo.size))
    rows = inside(X[:, 0::2] + 1j * X[:, 1::2], B + 1)
    r = rng.uniform(lo[0], hi[0], 400) / 2 + 1j * rng.uniform(lo[1], hi[1], 400) / 2
    locus = inside(np.stack([2.0 * r, r * r], axis=1), 50)
    return {"0 rows": rows[:0], "1 row": rows[:1], "block + 1 rows": rows,
            "branch locus": locus, "random": rows[rng.permutation(B + 1)[:300]]}


@pytest.mark.parametrize("sid, chart", _CLOSED_FORMS, ids=[s for s, _ in _CLOSED_FORMS])
def test_the_product_path_gives_the_row_paths_bits(sid, chart):
    f, eps = _pushforward(sid, chart)
    assert isinstance(f, ColumnField)
    fe, rows = mollify(f, eps), mollify(_row_path(f), eps)
    B = _EVAL_CHUNK // fe.meta["kernel_nodes"]
    for what, Z in _product_inputs(fe.valid_on, B, 7).items():
        got = fe.eval_many(Z)
        assert got.shape == (Z.shape[0],), what
        assert np.array_equal(got, rows.eval_many(Z)), what


class _FormSpy(ColumnField):
    """A column field that records the shapes its form is handed and the
    check flag of each eval_many call."""

    def __init__(self, f, valid_on):
        super().__init__(self._spied, valid_on, name=f.name)
        self.inner = f.form
        self.shapes, self.checks = [], []

    def _spied(self, *cols, out=None):
        self.shapes.append(np.broadcast_shapes(*(c.shape for c in cols)))
        return self.inner(*cols, out=out)

    def eval_many(self, Z, check=True):
        self.checks.append(check)
        return super().eval_many(Z, check=check)


def test_a_proved_column_field_is_read_on_the_translate_product():
    f, eps = _pushforward("S3", "D1")
    spy = _FormSpy(f, f.valid_on)
    fe = mollify(spy, eps)
    B = _EVAL_CHUNK // fe.meta["kernel_nodes"]
    Z = halton_sample(fe.valid_on, B + 1)
    spy.shapes.clear()
    assert np.array_equal(fe.eval_many(Z), mollify(f, eps).eval_many(Z))
    assert spy.checks == []
    # one broadcast per slab of a node group's first axis, at most K // 2
    # = 40 cells, in the order of the groups' first nodes
    slabs = [(8, 4), (3, 12), (1, 12)]
    assert spy.shapes == [g + (B,) for g in slabs] + [g + (1,) for g in slabs]


def test_a_warm_block_of_the_product_path_allocates_under_two_value_blocks():
    # the form values and the (points, K) block live in the shared
    # workspace; what is left are the form's own temporaries
    f, eps = _pushforward("S3", "D1")
    fe = mollify(f, eps)
    K = fe.meta["kernel_nodes"]
    B = _EVAL_CHUNK // K
    Z = halton_sample(fe.valid_on, B)
    fe.eval_many(Z)
    assert _traced_peak(lambda: fe.eval_many(Z)) < 2 * B * K * 8


def test_a_warm_block_of_the_product_path_leaves_one_value_table_in_the_workspace(
        monkeypatch):
    f, eps = _pushforward("S3", "D1")
    fe = mollify(f, eps)
    K = fe.meta["kernel_nodes"]
    B = _EVAL_CHUNK // K
    Z = halton_sample(fe.valid_on, B + 1)
    monkeypatch.setattr(psh, "_work", np.empty(0))
    fe.eval_many(Z[:B])
    fe.eval_many(Z)
    assert psh._work.size == B * K


def test_fields_sharing_the_workspace_give_the_bits_each_gives_alone(monkeypatch):
    f1, eps = _pushforward("S3", "D1")
    f3, _ = _pushforward("S3", "D3")
    fields = [(mollify(f, eps), mollify(_row_path(f), eps)) for f in (f1, f3)]
    B = _EVAL_CHUNK // fields[0][0].meta["kernel_nodes"]
    Zs = [halton_sample(fe.valid_on, 2 * B + 7) for fe, _ in fields]
    # from an empty workspace: a 5-point block of D1, then D3's and D1's
    # blocks in turn, the first of which grows it
    monkeypatch.setattr(psh, "_work", np.empty(0))
    small = fields[0][0].eval_many(Zs[0][:5])
    got = [[], []]
    for lo in range(0, 2 * B + 7, B):
        for i in (1, 0):
            got[i].append(fields[i][0].eval_many(Zs[i][lo:lo + B]))
    assert small.tobytes() == fields[0][1].eval_many(Zs[0][:5]).tobytes()
    for (fe, rows), Z, blocks in zip(fields, Zs, got):
        alone = rows.eval_many(Z)
        assert np.concatenate(blocks).tobytes() == alone.tobytes()
        assert fe.eval_many(Z).tobytes() == alone.tobytes()


class _ProfileSpy(RadialField):
    """A radial field that records the shapes its profile and its form
    are handed."""

    def __init__(self, f):
        super().__init__(self._spied, f.valid_on, name=f.name)
        self.inner = f.profile
        self.shapes, self.forms = [], 0

    def _spied(self, r2, out=None):
        self.shapes.append(r2.shape)
        return self.inner(r2, out=out)

    def _radial(self, z, out=None):
        self.forms += 1
        return super()._radial(z, out=out)


_RADIAL = [("S1", "w"), ("S4", "near")]


@pytest.mark.parametrize("sid, chart", _RADIAL, ids=[s for s, _ in _RADIAL])
def test_a_proved_radial_field_runs_its_profile_once_per_block_on_the_table(sid, chart):
    f, eps = _pushforward(sid, chart)
    assert isinstance(f, RadialField)
    spy = _ProfileSpy(f)
    fe = mollify(spy, eps)
    K, B = fe.meta["kernel_nodes"], _block(f, fe)
    Z = halton_sample(fe.valid_on, B + 1)
    spy.shapes.clear()
    assert fe.eval_many(Z).tobytes() == mollify(f, eps).eval_many(Z).tobytes()
    assert spy.shapes == [(K, B), (K, 1)]
    assert spy.forms == 0


@pytest.mark.parametrize("sid, chart", _RADIAL, ids=[s for s, _ in _RADIAL])
def test_a_warm_n1_block_allocates_no_complex_translate_table(sid, chart, monkeypatch):
    # the table and the 8 + 8 axis rows live in the workspace; a complex
    # translate table would be twice the table's size
    f, eps = _pushforward(sid, chart)
    fe = mollify(f, eps)
    K, B = fe.meta["kernel_nodes"], _block(f, fe)
    Z = halton_sample(fe.valid_on, B)
    monkeypatch.setattr(psh, "_work", np.empty(0))
    fe.eval_many(Z)
    assert psh._work.size == (K + 16) * B <= _EVAL_CHUNK
    assert _traced_peak(lambda: fe.eval_many(Z)) < K * B * np.dtype(complex).itemsize


def test_a_warm_s4_near_call_allocates_no_table_sized_temporary():
    # phi_near takes log1p into mollify's table in place and keeps one
    # row of (1 - a) L + c0 at a time; a float L of the whole table
    # (40 x 4,464, 1.43 MB) put this call's peak at 1.49 MB
    f, eps = _pushforward("S4", "near")
    fe = mollify(f, eps)
    K, B = fe.meta["kernel_nodes"], _block(f, fe)
    Z = halton_sample(fe.valid_on, 6250)
    fe.eval_many(Z)
    assert _traced_peak(lambda: fe.eval_many(Z)) < K * B * 8 / 5


def test_a_radial_kernel_whose_runs_skip_an_abscissa_is_refused(monkeypatch):
    # the second run of imaginary abscissae less its second node: the
    # nodes still ascend, but that run's table rows are no longer one add
    kernel = psh.mollifier_kernel

    def holed(two_n, order):
        k = kernel(two_n, order)
        keep = np.arange(k.weights.size) != 3
        return psh.MollifierKernel(k.offsets[keep], k.weights[keep], k.m2_unit)

    f, eps = _pushforward("S1", "w")
    monkeypatch.setattr(psh, "mollifier_kernel", holed)
    with pytest.raises(ValueError, match="skip an imaginary one"):
        mollify(f, eps)
    mollify(_row_path(f), eps)


def test_unproved_translates_of_a_column_field_take_the_checked_row_path():
    # the same form on an intersection, which translates_stay_inside does
    # not prove: every translate row is checked
    f, eps = _pushforward("S3", "D1")
    dom = Intersection((f.valid_on, Polydisk((0j, 0j), (2.4, 3.4))))
    spy = _FormSpy(f, dom)
    fe = mollify(spy, eps)
    K = fe.meta["kernel_nodes"]
    Z = halton_sample(fe.valid_on, 50)
    spy.shapes.clear()
    spy.checks.clear()
    assert np.array_equal(fe.eval_many(Z), mollify(_row_path(f), eps).eval_many(Z))
    assert spy.checks == [True]
    assert spy.shapes == [(50 * K,)]


def test_a_field_without_a_column_form_takes_the_row_path():
    f, eps = _pushforward("S3", "D1")
    spy = _CheckSpy(_row_path(f))
    fe = mollify(spy, eps)
    spy.checks.clear()
    Z = halton_sample(fe.valid_on, 50)
    assert np.array_equal(fe.eval_many(Z), mollify(f, eps).eval_many(Z))
    assert spy.checks == [False]


@pytest.mark.parametrize("n", [1, 2])
def test_an_empty_block_passes_through_the_lattice_operators(n):
    dom = Polydisk((0j,) * n, (1.0,) * n)
    f = ScalarField(lambda Z: np.sum(np.abs(Z) ** 2, axis=1), dom, name="sq")
    h = 0.05
    fl = lattice_field(f, sample_grid(dom, 0.1), h)
    Z = np.zeros((0, n), dtype=complex)
    assert fl.eval_many(Z).shape == (0,)
    assert levi_form_many(fl, Z, h).shape == (0, n, n)
    assert discrete_laplacian_many(fl, Z, h).shape == (0,)


# ---------------------------------------------------------------------------
# streamed lattices: the grid's blocks against one pass over its joined nodes

def _joined_min_levi(f, g, h):
    """min_levi_eigenvalue over g.nodes joined into one array and sliced
    into Levi blocks: (value, argmin location)."""
    fl = lattice_field(f, g, h)
    nodes = g.nodes
    step = _EVAL_CHUNK // 32 + 1
    mins, where = [], []
    for lo in range(0, len(nodes), step):
        eigs = hermitian_min_eigenvalues(levi_form_many(fl, nodes[lo:lo + step], h))
        i = int(np.argmin(eigs))
        mins.append(eigs[i])
        where.append(lo + i)
    k = int(np.argmin(mins))
    return float(mins[k]), tuple(complex(c) for c in nodes[where[k]])


def _joined_laplacian_sup(f, g, h):
    fl = lattice_field(f, g, h)
    nodes = g.nodes
    step = _EVAL_CHUNK // 8 + 1
    return float(np.max([np.max(np.abs(discrete_laplacian_many(fl, nodes[lo:lo + step], h)))
                         for lo in range(0, len(nodes), step)]))


def _bits(x):
    return np.float64(x).tobytes()


def _levi_equals_joined(monkeypatch, f, g, h):
    """The streamed Levi minimum has the joined pass's bits and location,
    from levi_form_many calls on the joined pass's blocks."""
    sizes = []
    levi = psh.levi_form_many
    with monkeypatch.context() as m:
        m.setattr(psh, "levi_form_many",
                  lambda fl, Z, hh: sizes.append(len(Z)) or levi(fl, Z, hh))
        rep = min_levi_eigenvalue(f, g, h)
    step = _EVAL_CHUNK // 32 + 1
    assert sizes == [min(step, len(g) - lo) for lo in range(0, len(g), step)]
    value, where = _joined_min_levi(f, g, h)
    assert _bits(rep.min_eigenvalue) == _bits(value)
    assert rep.argmin_location == where


def _laplacian_equals_joined(f, g, h):
    assert _bits(laplacian_sup(f, g, h)) == _bits(_joined_laplacian_sup(f, g, h))


@pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4"])
def test_every_streamed_zone_check_equals_a_pass_over_the_joined_nodes(monkeypatch, sid):
    s = build_scenario(sid)
    res = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                             s.steps, s.params)
    zones = 0
    for spec in s.battery:
        if isinstance(spec, LeviZone):
            f = res.cocycle.chart(spec.chart).potential
            for h in (spec.h, spec.h / 2.0):
                _levi_equals_joined(monkeypatch, f, spec.lattice.grid(h), h)
        elif isinstance(spec, C2Zone):
            for f in (res.raw.chart(spec.chart).potential,
                      res.cocycle.chart(spec.chart).potential):
                for h in (spec.h, spec.h / 2.0):
                    _laplacian_equals_joined(f, spec.lattice.grid(h), h)
        else:
            continue
        zones += 1
    assert zones == {"S1": 3, "S2": 5, "S3": 5, "S4": 3}[sid]


def _regmax_field():
    """test_acceptance's kinked field: the regularized max of two shifted
    quadratics on the disk of radius 0.8."""
    dom = Disk(0.0, 0.8)
    u = ScalarField(lambda Z: np.abs(Z[:, 0] - 0.2) ** 2, dom)
    v = ScalarField(lambda Z: np.abs(Z[:, 0] + 0.2) ** 2 + 0.05, dom)
    return ScalarField(lambda Z: reg_max_many(u.eval_many(Z), v.eval_many(Z), 0.05), dom)


@pytest.mark.parametrize("sites", [None, 2 ** 12, 1], ids=["default", "4096", "1"])
def test_a_streamed_grid_read_at_half_its_spacing_equals_the_joined_pass(
        monkeypatch, sites):
    # spacing 5e-3 and step 2.5e-3, as in test_acceptance; small candidate
    # blocks carry Levi blocks across many enumerated blocks
    if sites is not None:
        monkeypatch.setattr(geometry, "_LATTICE_BLOCK_SITES", sites)
    f = _regmax_field()
    g = sample_grid(Disk(0.0, 0.5), 5e-3)
    assert len(g) > 4 * (_EVAL_CHUNK // 32 + 1)
    _levi_equals_joined(monkeypatch, f, g, 2.5e-3)
    _laplacian_equals_joined(f, g, 2.5e-3)


def _clean_levi_field(Z):
    # Levi value 1 + 0.75 Re z along the last coordinate, 1 along any
    # other: smallest at the first nodes of a lattice in the last one
    return np.sum(np.abs(Z) ** 2, axis=1) + 0.5 * Z[:, -1].real ** 3


# (lattice, field domain) per n: the n = 2 lattice is the one-variable
# slice through (0.3, 0) along the second coordinate
_NAN_ZONES = {
    1: (Lattice(Disk(0.0, 0.9)), Disk(0.0, 1.0)),
    2: (Lattice(Polydisk((0.3, 0.0), (0.2, 0.9)), free_axis=1, basepoint=(0.3, 0.0)),
        Polydisk((0.0, 0.0), (1.0, 1.0))),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sites", [None, 2 ** 12], ids=["default", "4096"])
def test_a_nan_in_a_later_block_than_the_minimum_fails_the_zone_checks(
        monkeypatch, sites, n):
    if sites is not None:
        monkeypatch.setattr(geometry, "_LATTICE_BLOCK_SITES", sites)
    z0 = 0.85  # a node of both lattices, near the end of their ij order

    def ev(Z):
        v = _clean_levi_field(Z)
        v[np.abs(Z[:, -1] - z0) < 1e-9] = np.nan
        return v

    lattice, dom = _NAN_ZONES[n]
    f = ScalarField(ev, dom)
    h = 0.01
    step = _EVAL_CHUNK // 32 + 1
    for hh in (h, h / 2.0):
        g = lattice.grid(hh)
        low = min_levi_eigenvalue(ScalarField(_clean_levi_field, dom), g, hh).argmin_location
        nodes = g.nodes
        first_nan = np.flatnonzero(np.abs(nodes[:, -1] - z0) < 1e-9)[0]
        assert first_nan // step > np.flatnonzero(nodes[:, -1] == low[-1])[0] // step
        assert np.isnan(laplacian_sup(f, g, hh))
    charts = SimpleNamespace(chart=lambda name: SimpleNamespace(potential=f))
    res = SimpleNamespace(raw=charts, cocycle=charts)
    checks = [c for spec in (LeviZone("z", "w", lattice, h), C2Zone("w", lattice, h))
              for _, c in spec.run(None, res, None)]
    assert len(checks) == 4
    assert all(np.isnan(c["value"]) and c["pass"] is False for c in checks)


def _near_pairs(count, eta, seed):
    """count pairs of values within 2 eta of each other: all of them take
    reg_max_many's quadrature branch."""
    rng = np.random.default_rng(seed)
    T1 = rng.uniform(-1.0, 1.0, count)
    return T1, T1 + rng.uniform(-1.9 * eta, 1.9 * eta, count)


def _reg_max_unchunked(T1, T2, eta):
    # reg_max_many with every near pair in one (pairs, 16, 16) quadrature
    k = regmax_kernel()
    out = np.maximum(T1, T2)
    near = np.abs(T1 - T2) < 2.0 * eta
    a = T1[near][:, None, None] + eta * k.nodes[None, :, None]
    b = T2[near][:, None, None] + eta * k.nodes[None, None, :]
    out[near] = np.einsum("mij,ij->m", np.maximum(a, b),
                          k.weights[:, None] * k.weights[None, :])
    return out


def test_a_nan_pair_in_a_later_chunk_leaves_every_other_pair_its_unchunked_bits():
    eta = 0.01
    chunk = _EVAL_CHUNK // 256
    T1, T2 = _near_pairs(3 * chunk + 17, eta, 5)
    T1[2 * chunk + 3] = np.nan
    T2[chunk + 11] = np.nan
    got = reg_max_many(T1, T2, eta)
    want = _reg_max_unchunked(T1, T2, eta)
    bad = np.isnan(got)
    assert np.flatnonzero(bad).tolist() == [chunk + 11, 2 * chunk + 3]
    assert got.tobytes() == want.tobytes()


def test_reg_max_many_holds_one_chunk_of_its_quadrature():
    # 40,000 near pairs: one (pairs, 16, 16) quadrature over all of them
    # took 93 MB; a chunk of _EVAL_CHUNK // 256 pairs takes 2 MB
    T1, T2 = _near_pairs(40_000, 0.01, 9)
    tracemalloc.start()
    try:
        got = reg_max_many(T1, T2, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert got.tobytes() == _reg_max_unchunked(T1, T2, 0.01).tobytes()


def test_s3s_band_slice_zone_at_h2_reads_its_stencils_in_a_fraction_of_their_rows():
    # S3 at h = 6e-3, band_slice_D1 at h/2 on the glued psi: 4,760 nodes,
    # 119,000 stencil points, 25,940 distinct sites.  Snapping every row and
    # one quadrature over every near pair peaked at 20.2 MB traced
    s = build_scenario("S3", {"h": 6e-3})
    res = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                             s.steps, s.params)
    spec = next(z for z in s.battery
                if isinstance(z, LeviZone) and z.zone == "band_slice_D1")
    psi, h = res.cocycle.chart(spec.chart).potential, spec.h / 2.0
    g = spec.lattice.grid(h)
    warm = min_levi_eigenvalue(psi, g, h)  # grows mollify's shared workspace
    tracemalloc.start()
    try:
        rep = min_levi_eigenvalue(psi, g, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g) == 4_760
    assert rep == warm
    assert peak < 10e6


@pytest.mark.parametrize("sid, zone", [("S1", "band"), ("S3", "band_slice_D1")])
def test_no_lattice_check_builds_the_stencil_row_block(monkeypatch, sid, zone):
    # the lattice checks key each node once and add the stencil's integer
    # steps; the (nodes * offsets, n) rows are never made
    spec = next(z for z in build_scenario(sid).battery
                if isinstance(z, LeviZone) and z.zone == zone)
    g = spec.lattice.grid(spec.h / 2.0)
    f = ScalarField(_clean_levi_field, Polydisk((0j,) * g.n, (3.0,) * g.n))
    want = (min_levi_eigenvalue(f, g, spec.h / 2.0),
            laplacian_sup(f, g, spec.h / 2.0))

    def refused(name):
        def spy(*args):
            raise AssertionError(f"{name} called by a lattice check")
        return spy

    for mod in (geometry, psh):
        monkeypatch.setattr(mod, "stencil_rows", refused("stencil_rows"))
    got = (min_levi_eigenvalue(f, g, spec.h / 2.0),
           laplacian_sup(f, g, spec.h / 2.0))
    assert got == want
