"""Branched covering models and the fiber-sum pushforward."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth.covers import (
    CONTAINMENT_SLACK,
    IdentityCover,
    PowerCover,
    SymmetricSum,
    VietaCover,
    _roots_batched,
    discriminant_many,
    fibers_inside,
    pushforward,
)
from coversmooth.errors import DomainError
from coversmooth.scenarios import (
    _abs_sq,
    _abs_sq_sp,
    _log1p_abs_sq_sp,
)
from coversmooth.geometry import (
    Disk,
    Intersection,
    LevelRegion,
    Polydisk,
    ScalarField,
    halton_sample,
)


# the upstairs charts are the domains of the fields pushed down
_POWER_UP = Disk(0.0, 1.1)
_VIETA_UP = Polydisk((0, 0), (3.3, 3.3))


def _power():
    return PowerCover(2, Disk(0.0, 1.21))


def _vieta():
    return VietaCover(Polydisk((0, 0), (2.5, 2.0)))


def _row_counts(rows, digits):
    """How many of the fiber rows (degree, n) are equal, by real parts
    rounded to the given digits; the imaginary parts must vanish."""
    assert np.max(np.abs(rows.imag)) <= 10.0 ** -digits
    return Counter(tuple(round(c.real, digits) for c in row) for row in rows)


def test_power_fiber_off_the_branch_point():
    rows = _power().fiber_rows(np.array([[0.25 + 0j]]))[0]
    assert rows.shape == (2, 1)
    assert _row_counts(rows, 9) == {(-0.5,): 1, (0.5,): 1}


def test_power_fiber_at_the_branch_point_is_double():
    rows = _power().fiber_rows(np.array([[0j]]))[0]
    assert _row_counts(rows, 9) == {(0.0,): 2}
    assert np.all(rows == 0.0)


def test_vieta_fiber_lists_both_root_orderings():
    rows = _vieta().fiber_rows(np.array([[0j, -1.0 + 0j]]))[0]
    assert _row_counts(rows, 9) == {(1.0, -1.0): 1, (-1.0, 1.0): 1}


def test_vieta_fiber_at_the_diagonal_point():
    # s = 2, p = 1 is the squared root pair (1, 1): both orderings agree
    rows = _vieta().fiber_rows(np.array([[2.0 + 0j, 1.0 + 0j]]))[0]
    assert _row_counts(rows, 9) == {(1.0, 1.0): 2}


def test_discriminant_values():
    disc2 = discriminant_many(np.array([[2.0, 1.0], [0.0, -1.0]]))
    assert disc2 == pytest.approx([0.0, 4.0], abs=1e-12)


def test_power_pushforward_matches_closed_form():
    """Summing |z|^2 over the two square roots of w gives 2|w|."""
    cover = _power()
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, _POWER_UP, name="sq")
    pf = pushforward(cover, f)
    W = halton_sample(cover.downstairs, 400, start=1)
    got = pf.eval_many(W)
    want = 2.0 * np.abs(W[:, 0])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_vieta_pushforward_matches_root_sum_identity():
    """Sum of |z1|^2 + |z2|^2 over both orderings equals |s|^2 + |s^2 - 4p|."""
    cover = _vieta()
    f = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 2 + np.abs(Z[:, 1]) ** 2,
        _VIETA_UP,
        name="ss",
    )
    pf = pushforward(cover, f)
    B = halton_sample(cover.downstairs, 400, start=1)
    s, p = B[:, 0], B[:, 1]
    want = np.abs(s) ** 2 + np.abs(s * s - 4.0 * p)
    assert np.max(np.abs(pf.eval_many(B) - want)) <= 1e-9


def test_vieta_pushforward_frozen_spot_values():
    cover = _vieta()
    f = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 2 + np.abs(Z[:, 1]) ** 2,
        _VIETA_UP,
        name="ss",
    )
    pf = pushforward(cover, f)
    got = pf.eval_many(np.array([[2.0 + 0j, 1.0 + 0j], [0.0 + 0j, -1.0 + 0j]]))
    assert got == pytest.approx([4.0, 4.0], abs=1e-9)


def test_unit_pushforward_equals_the_degree_everywhere():
    for cover, up in ((_power(), _POWER_UP), (_vieta(), _VIETA_UP)):
        one = ScalarField(lambda Z: np.ones(Z.shape[0]), up, name="one")
        pf = pushforward(cover, one)
        B = halton_sample(cover.downstairs, 400, start=1)
        assert np.array_equal(pf.eval_many(B), np.full(400, float(cover.degree)))


def test_identity_cover_pushforward_is_the_field_itself():
    dom = Disk(0.0, 1.0)
    cover = IdentityCover(dom)
    assert cover.degree == 1
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom, name="sq")
    pf = pushforward(cover, f)
    P = halton_sample(Disk(0.0, 0.9), 200, start=1)
    assert np.array_equal(pf.eval_many(P), f.eval_many(P))


def _elementary(Z):
    """e_1..e_n of each row of Z: e_k sums the products of k coordinates."""
    n = Z.shape[1]
    return np.stack([sum(np.prod(Z[:, list(c)], axis=1)
                         for c in itertools.combinations(range(n), k))
                     for k in range(1, n + 1)], axis=1)


def _round_trips():
    """(name, cover, base rows, the cover map) for each local model."""
    power = _power()
    vieta = _vieta()
    s = halton_sample(Disk(0.0, 2.5), 64, start=1)[:, 0]
    return (
        ("power", power, halton_sample(power.downstairs, 128, start=1),
         lambda Z: Z ** 2),
        # the diagonal s^2 = 4p, where the two roots coincide, and generic rows
        ("vieta_2", vieta, np.vstack([np.stack([s, s * s / 4.0], axis=1),
                                      halton_sample(vieta.downstairs, 64, start=1)]),
         _elementary),
        ("identity", IdentityCover(Disk(0.0, 1.0)),
         halton_sample(Disk(0.0, 1.0), 64, start=1), lambda Z: Z),
    )


def test_fiber_rows_map_back_to_the_base():
    for name, cover, B, forward in _round_trips():
        B = B.astype(complex)
        rows = cover.fiber_rows(B)
        assert rows.shape == (B.shape[0], cover.degree, cover.n), name
        for k in range(cover.degree):
            err = np.abs(forward(rows[:, k, :]) - B) / (1.0 + np.abs(B))
            assert np.max(err) <= 1e-9, (name, k, np.max(err))


def test_pushforward_rejects_escaping_fibers():
    # square roots of the unit disk need the full unit disk upstairs
    bad = PowerCover(2, Disk(0.0, 1.0))
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 0.9), name="sq")
    with pytest.raises(DomainError):
        pushforward(bad, f)


def _log1p_abs_sq(z):
    return np.log1p(np.abs(z) ** 2)


def _plain(f):
    """The same evaluator and domain as f, as a field of no special type."""
    return ScalarField(f.evaluator, f.valid_on, name=f.name)


_coord = st.floats(-1.5, 1.5, allow_nan=False)


@pytest.mark.parametrize("n", [2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_symmetric_sum_gives_the_same_bits_under_every_permutation(n, data):
    # the two terms commute in IEEE addition
    rows = data.draw(st.lists(st.lists(st.tuples(_coord, _coord), min_size=n,
                                       max_size=n), min_size=1, max_size=16))
    Z = np.array([[complex(a, b) for a, b in row] for row in rows])
    f = SymmetricSum(_log1p_abs_sq, 2.2, _log1p_abs_sq_sp)
    want = f.eval_many(Z)
    for perm in itertools.permutations(range(n)):
        assert np.array_equal(f.eval_many(Z[:, list(perm)]), want)


def test_symmetric_sum_pushforward_raises_when_a_fiber_escapes_at_evaluation():
    # the 128 construction probes stay below |r| = 2.992, so the cover is
    # accepted; over (2.4, -1.9) the root (2.4 + sqrt(13.36))/2 = 3.03 is not
    f = SymmetricSum(_abs_sq, 3.0, _abs_sq_sp)
    cover = VietaCover(Polydisk((0, 0), (2.5, 2.0)))
    B = np.array([[2.4 + 0j, -1.9 + 0j]])
    for g in (f, _plain(f)):
        pf = pushforward(cover, g)
        with pytest.raises(DomainError):
            pf.eval_many(B)


def _in_disks(rng, radii, m):
    """m rows uniform in the polydisk of the given radii about 0."""
    rad = np.sqrt(rng.random((m, len(radii)))) * np.asarray(radii)
    return rad * np.exp(2j * np.pi * rng.random((m, len(radii))))


_SHIPPED_FORMS = [(_abs_sq, _abs_sq_sp), (_log1p_abs_sq, _log1p_abs_sq_sp)]


@pytest.mark.parametrize("phi, sp_form", _SHIPPED_FORMS, ids=["sum_sq", "log1p"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(1e-3, 1e3, allow_nan=False), b=st.floats(1e-3, 1e3, allow_nan=False),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_fiber_sums_match_the_root_path_on_random_polydisks(
        phi, sp_form, a, b, seed):
    rng = np.random.default_rng(seed)
    bound = 0.5 * a + np.sqrt(0.25 * a * a + b)
    f = SymmetricSum(phi, 2.0 * bound, sp_form)
    cover = VietaCover(Polydisk((0, 0), (a, b)))
    assert fibers_inside(cover, f.valid_on)
    # near the discriminant s^2 = 4p: r2 = r1 (1 + t) with t = 0 or tiny,
    # and |r1| small enough that |s| < a and |p| < b
    r1 = _in_disks(rng, (0.45 * min(0.5 * a, np.sqrt(b)),), 400)[:, 0]
    t = np.where(rng.random(400) < 0.5, 0.0, 1e-9 * np.exp(2j * np.pi * rng.random(400)))
    r2 = r1 * (1.0 + t)
    near = np.stack([r1 + r2, r1 * r2], axis=1)
    corners = (1.0 - 1e-12) * np.array([[a, -b], [-a, -b], [1j * a, b]])
    B = np.vstack([_in_disks(rng, (a, b), 2000), near, corners])
    got = pushforward(cover, f).eval_many(B)
    want = pushforward(cover, _plain(f)).eval_many(B)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


def test_a_wrong_closed_form_fails_pushforward_construction():
    # the log form without its |p|^2 term
    def bad(s, p):
        return 2.0 * np.log1p(0.5 * _abs_sq_sp(s, p))

    f = SymmetricSum(_log1p_abs_sq, 3.8, bad)
    cover = VietaCover(Polydisk((0, 0), (2.5, 3.5)))
    with pytest.raises(ValueError, match="differs from its fiber sum"):
        pushforward(cover, f)
    ok = SymmetricSum(_log1p_abs_sq, 3.8, _log1p_abs_sq_sp)
    pushforward(cover, ok)


_radius = st.floats(1e-3, 1e3, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_radius, b=_radius, seed=st.integers(0, 2 ** 32 - 1))
def test_vieta_roots_never_exceed_the_quadratic_formula_bound(a, b, seed):
    E = _in_disks(np.random.default_rng(seed), (a, b), 2000)
    # the extreme corner: s = a, p = -b has the root a/2 + sqrt(a^2/4 + b)
    E = np.vstack([E, [[a, -b], [-a, -b], [1j * a, b]]])
    bound = 0.5 * a + np.sqrt(0.25 * a * a + b)
    assert np.max(np.abs(_roots_batched(E))) <= bound * (1.0 + CONTAINMENT_SLACK)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 5), R=_radius, seed=st.integers(0, 2 ** 32 - 1))
def test_power_roots_never_exceed_the_root_of_the_radius(d, R, seed):
    down = Disk(0.0, R)
    B = np.vstack([_in_disks(np.random.default_rng(seed), (R,), 2000),
                   [[R], [-R], [1j * R]]])
    roots = PowerCover(d, down).fiber_rows(B)
    assert np.max(np.abs(roots)) <= R ** (1.0 / d) * (1.0 + CONTAINMENT_SLACK)


@pytest.mark.parametrize("cover, up, proved", [
    # S1: sqrt(1.5) = 1.22 < 1.5
    (PowerCover(2, Disk(0.0, 1.5)), Disk(0.0, 1.5), True),
    # S2 2.62 < 4.2, S3 D1 3.5 < 3.8, S3 D3 2.22 < 2.4
    (VietaCover(Polydisk((0, 0), (1.9, 1.9))),
     Polydisk((0, 0), (4.2, 4.2)), True),
    (VietaCover(Polydisk((0, 0), (2.5, 3.5))),
     Polydisk((0, 0), (3.8, 3.8)), True),
    (VietaCover(Polydisk((0, 0), (1.75, 1.05))),
     Polydisk((0, 0), (2.4, 2.4)), True),
    # the bound 3.137 of (2.5, 2.0) is above 3.0
    (VietaCover(Polydisk((0, 0), (2.5, 2.0))),
     Polydisk((0, 0), (3.0, 3.0)), False),
    # a bound exactly at the radius leaves no slack
    (VietaCover(Polydisk((0, 0), (2.5, 3.5))),
     Polydisk((0, 0), (3.5, 3.5)), False),
    (PowerCover(2, Disk(0.0, 1.0)), Disk(0.0, 0.9), False),
    (PowerCover(2, Disk(0.1, 0.5)), Disk(0.0, 1.5), False),
    (PowerCover(2, Disk(0.0, 1.0)), Disk(0.1, 1.5), False),
    (VietaCover(Polydisk((0.1, 0), (1.0, 1.0))),
     Polydisk((0, 0), (4.0, 4.0)), False),
    # a shrink is the polydisk of its radii less the margin: 3.5 < 3.8 - 0.2
    # but not 3.8 - 0.4
    (VietaCover(Polydisk((0, 0), (2.5, 3.5))),
     Polydisk((0, 0), (3.8, 3.8)).shrink(0.2), True),
    (VietaCover(Polydisk((0, 0), (2.5, 3.5))),
     Polydisk((0, 0), (3.8, 3.8)).shrink(0.4), False),
    # an intersection may cut its member's polydisk down below the fibers
    (PowerCover(2, Disk(0.0, 1.5)),
     Intersection((Disk(0.0, 1.5), LevelRegion(lambda Z: np.abs(Z[:, 0]), 0.1, 1))),
     False),
])
def test_fiber_containment_is_proved_only_under_its_bound(cover, up, proved):
    assert fibers_inside(cover, up) is proved


def test_an_identity_cover_is_proved_only_on_its_own_chart():
    dom = Disk(0.0, 0.8)
    assert fibers_inside(IdentityCover(dom), dom)
    assert not fibers_inside(IdentityCover(dom), Disk(0.0, 0.9))


class _CheckSpy(ScalarField):
    """A field that records the check flag of every evaluation."""

    def __init__(self, f):
        super().__init__(f.evaluator, f.valid_on, name=f.name)
        self.checks = []

    def eval_many(self, Z, check=True):
        self.checks.append(check)
        return super().eval_many(Z, check=check)


@pytest.mark.parametrize("cover, radius, proved", [
    (PowerCover(2, Disk(0.0, 1.5)), 1.5, True),
    (VietaCover(Polydisk((0, 0), (2.5, 3.5))), 3.8, True),
    (VietaCover(Polydisk((0, 0), (2.5, 2.0))), 3.1, False),
])
def test_pushforward_checks_the_fiber_rows_only_where_unproved(cover, radius, proved):
    up = Polydisk((0j,) * cover.n, (radius,) * cover.n)
    f = _CheckSpy(ScalarField(lambda Z: np.sum(np.abs(Z) ** 2, axis=1), up))
    pf = pushforward(cover, f)
    B = halton_sample(cover.downstairs, 64, start=1)
    vals = pf.eval_many(B)
    assert f.checks == [not proved]
    plain = pushforward(cover, _plain(f)).eval_many(B)
    assert np.array_equal(vals, plain)
