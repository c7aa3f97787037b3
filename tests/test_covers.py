"""Branched covering models and the fiber-sum pushforward."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversmooth import covers
from coversmooth.covers import (
    CLOSED_FORM_RTOL,
    ColumnField,
    IdentityCover,
    PowerCover,
    RadialField,
    SymmetricSum,
    VietaCover,
    _fiber_sum,
    _roots_batched,
    discriminant_many,
    fibers_inside,
    pushforward,
)
from coversmooth.errors import DomainError
from coversmooth.scenarios import (
    _abs_sq,
    _abs_sq_profile,
    _abs_sq_sp,
    _log1p_abs_sq_sp,
    build_scenario,
)
from coversmooth.geometry import (
    PROOF_SLACK,
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
    W = halton_sample(cover.downstairs, 400)
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
    B = halton_sample(cover.downstairs, 400)
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
        B = halton_sample(cover.downstairs, 400)
        assert np.array_equal(pf.eval_many(B), np.full(400, float(cover.degree)))


def test_identity_cover_pushforward_is_the_field_itself():
    dom = Disk(0.0, 1.0)
    cover = IdentityCover(dom)
    assert cover.degree == 1
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom, name="sq")
    pf = pushforward(cover, f)
    P = halton_sample(Disk(0.0, 0.9), 200)
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
    s = halton_sample(Disk(0.0, 2.5), 64)[:, 0]
    return (
        ("power", power, halton_sample(power.downstairs, 128),
         lambda Z: Z ** 2),
        # the diagonal s^2 = 4p, where the two roots coincide, and generic rows
        ("vieta_2", vieta, np.vstack([np.stack([s, s * s / 4.0], axis=1),
                                      halton_sample(vieta.downstairs, 64)]),
         _elementary),
        ("identity", IdentityCover(Disk(0.0, 1.0)),
         halton_sample(Disk(0.0, 1.0), 64), lambda Z: Z),
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
    assert np.max(np.abs(_roots_batched(E))) <= bound * (1.0 + PROOF_SLACK)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 5), R=_radius, seed=st.integers(0, 2 ** 32 - 1))
def test_power_roots_never_exceed_the_root_of_the_radius(d, R, seed):
    down = Disk(0.0, R)
    B = np.vstack([_in_disks(np.random.default_rng(seed), (R,), 2000),
                   [[R], [-R], [1j * R]]])
    roots = PowerCover(d, down).fiber_rows(B)
    assert np.max(np.abs(roots)) <= R ** (1.0 / d) * (1.0 + PROOF_SLACK)


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
    B = halton_sample(cover.downstairs, 64)
    vals = pf.eval_many(B)
    assert f.checks == [not proved]
    plain = pushforward(cover, _plain(f)).eval_many(B)
    assert np.array_equal(vals, plain)


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_the_fiber_sum_keeps_the_bits_of_numpys_row_sum(deg):
    # every ordering of signed zeros, infinities and NaNs (the sign of a
    # NaN and the zero of an all-zero row show the order), and random rows
    # whose rounding shows any regrouping
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1e-17])
    rng = np.random.default_rng(deg)
    rand = rng.standard_normal((50_000, deg)) * 10.0 ** rng.integers(-12, 12, (50_000, deg))
    for V in (np.array(list(itertools.product(special, repeat=min(deg, 3)))), rand):
        V = np.tile(V, (1, -(-deg // V.shape[1])))[:, :deg]
        with np.errstate(invalid="ignore"):
            want = V.sum(axis=1)
            got = _fiber_sum(V.ravel(), deg)
        assert got.tobytes() == want.tobytes()


def test_the_square_root_cover_has_the_fiber_plus_and_minus_the_principal_root():
    # the branch point, the cut along the negative reals from either side
    # (the sign of a zero imaginary part picks the side), and random rows
    special = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-1e-300, 0.0)])
    rng = np.random.default_rng(7)
    w = np.concatenate([special, rng.standard_normal(1000) + 1j * rng.standard_normal(1000)])
    rows = _power().fiber_rows(w[:, None])
    root = np.sqrt(w)
    assert rows.shape == (w.size, 2, 1)
    assert rows[:, 0, 0].tobytes() == root.tobytes()
    assert rows[:, 1, 0].tobytes() == (-root).tobytes()
    assert rows[3, 0, 0] == 1j * np.sqrt(2.0) and rows[4, 0, 0] == -1j * np.sqrt(2.0)


@pytest.mark.parametrize("sid", ["S2", "S3"])
def test_a_column_fields_form_gives_its_evaluators_bits_on_the_shipped_charts(sid):
    s = build_scenario(sid)
    for pair in s.cover:
        pf = pushforward(pair.cover, s.upstairs.chart(pair.upstairs_name).potential)
        assert isinstance(pf, ColumnField), pair.downstairs_name
        Z = halton_sample(pf.valid_on, 4000)
        assert pf.form(*Z.T).tobytes() == pf.eval_many(Z).tobytes()
        # broadcast over the product of 40 first and 50 second coordinates,
        # value for value the form at the rows of the product
        S, P = Z[:40, 0], Z[40:90, 1]
        rows = np.stack(np.meshgrid(S, P, indexing="ij"), axis=-1).reshape(-1, 2)
        want = pf.eval_many(rows).reshape(40, 50)
        assert pf.form(S[:, None], P[None, :]).tobytes() == want.tobytes()


# the slabs of mollify's node groups for n = 2 that one form call covers:
# (first-axis, second-axis) translates
_GROUP_SHAPES = [(8, 4), (3, 12), (1, 12)]


def _group_columns(a, b, mb, locus, seed):
    """s on a leading axis of a translates and p on the next of b, with mb
    points innermost, as mollify hands a form its translates.  On the
    locus every cell has s^2 = 4p exactly: s = 2r and p = r^2 for each
    point's r, and doubling is exact."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, mb) + 1j * rng.uniform(-1.0, 1.0, mb)
    if locus:
        return (np.broadcast_to(2.0 * r, (a, 1, mb)),
                np.broadcast_to(r * r, (1, b, mb)))
    moves = rng.uniform(-0.1, 0.1, (a + b, 2)) @ np.array([1.0, 1j])
    return 2.0 * r - moves[:a].reshape(a, 1, 1), r * r - moves[a:].reshape(1, b, 1)


@pytest.mark.parametrize("form", [_abs_sq_sp, _log1p_abs_sq_sp], ids=["sum_sq", "log1p"])
@pytest.mark.parametrize("a, b", _GROUP_SHAPES, ids=[f"{a}x{b}" for a, b in _GROUP_SHAPES])
@pytest.mark.parametrize("mb, locus", [(1420, False), (0, False), (300, True)],
                         ids=["block", "0 points", "branch locus"])
def test_a_closed_form_writes_into_out_with_the_bits_of_its_allocating_call(
        form, a, b, mb, locus):
    s, p = _group_columns(a, b, mb, locus, seed=a * b + mb)
    if locus:
        assert np.all(s * s == 4.0 * p)
    want = form(s, p)
    assert want.shape == (a, b, mb)
    # an out one float into a larger buffer, as the workspace hands out
    out = np.full(a * b * mb + 1, np.nan)[1:].reshape(a, b, mb)
    assert form(s, p, out=out) is out
    assert out.tobytes() == want.tobytes()
    rows = np.full(a * b * mb, np.nan)
    assert form(*(np.broadcast_to(c, (a, b, mb)).ravel() for c in (s, p)),
                out=rows) is rows
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["closed form", "no sp_form", "unproved",
                                  "power", "identity", "radial power", "radial identity"])
def test_pushforward_returns_a_column_field_only_from_its_closed_form(case):
    vieta = VietaCover(Polydisk((0, 0), (2.5, 3.5)))
    summed = SymmetricSum(_log1p_abs_sq, 3.8, _log1p_abs_sq_sp)
    sq = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, Disk(0.0, 1.5))
    radial = RadialField(_abs_sq_profile, sq.valid_on, name="sq")
    cover, f = {
        "closed form": (vieta, summed),
        "no sp_form": (vieta, _plain(summed)),
        # the bound 3.137 of (2.5, 2.0) is above the radius 3.0: the probes
        # stay inside, but containment is not proved
        "unproved": (VietaCover(Polydisk((0, 0), (2.5, 2.0))),
                     SymmetricSum(_abs_sq, 3.0, _abs_sq_sp)),
        "power": (PowerCover(2, Disk(0.0, 1.5)), sq),
        "identity": (IdentityCover(sq.valid_on), sq),
        "radial power": (PowerCover(2, Disk(0.0, 1.5)), radial),
        "radial identity": (IdentityCover(sq.valid_on), radial),
    }[case]
    closed = case in ("closed form", "radial power", "radial identity")
    assert isinstance(pushforward(cover, f), ColumnField) is closed


def _log1p_abs_sq_sp_halved_per_cell(s, p):
    """S3's closed form with the halving on every cell, as
    (|s|^2 + |s^2 - 4p|) * 0.5: the reference for the halving on the s and
    p columns."""
    x = np.abs(s) ** 2 + np.abs(s * s - 4.0 * p)
    x *= 0.5
    x += np.abs(p) ** 2
    return 2.0 * np.log1p(x)


@pytest.mark.parametrize("a, b", _GROUP_SHAPES, ids=[f"{a}x{b}" for a, b in _GROUP_SHAPES])
@pytest.mark.parametrize("mb, locus", [(1420, False), (300, True)],
                         ids=["block", "branch locus"])
def test_halving_s3s_form_on_its_columns_keeps_the_bits_of_halving_each_cell(
        a, b, mb, locus):
    s, p = _group_columns(a, b, mb, locus, seed=a + b + mb)
    want = _log1p_abs_sq_sp_halved_per_cell(s, p)
    assert _log1p_abs_sq_sp(s, p).tobytes() == want.tobytes()
    # and |D / 2| is |D| / 2 on random discriminants of every scale
    rng = np.random.default_rng(mb)
    D = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) \
        * 10.0 ** rng.uniform(-6, 6, 200_000)
    assert np.abs(0.5 * D).tobytes() == (0.5 * np.abs(D)).tobytes()


# ---------------------------------------------------------------------------
# n = 1 radial fields: S1's |z|^2 over the square-root cover, S4's near
# potential over the identity cover

_N1_CHARTS = [("S1", "w"), ("S4", "near")]


def _n1_chart(sid, chart):
    """(cover, upstairs field) of a shipped n = 1 chart."""
    s = build_scenario(sid)
    pair = next(p for p in s.cover if p.downstairs_name == chart)
    return pair.cover, s.upstairs.chart(pair.upstairs_name).potential


def _neg_profile(r2, out=None):
    """-|z|^2 as a profile of r2, which is -0.0 at z = 0."""
    return np.negative(r2, out=out)


def _base_rows(cover):
    """The probe, the branch point w = 0 with each sign of zero, the
    negative real axis from both sides of sqrt's cut, and random rows."""
    R = cover.downstairs.radii[0]
    x = np.linspace(0.0, 0.999 * R, 50)
    special = np.concatenate([[0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                               complex(-0.0, -0.0)],
                              -x + 0.0j, np.array(-x + 0.0j).conj()])
    assert np.signbit(special[54:].imag).all()
    return np.concatenate([halton_sample(cover.downstairs, 128)[:, 0], special,
                           halton_sample(cover.downstairs, 2000)[:, 0]])[:, None]


@pytest.mark.parametrize("sid, chart", _N1_CHARTS, ids=[s for s, _ in _N1_CHARTS])
def test_the_n1_closed_forms_give_the_root_solved_fiber_sums_within_the_probe_tolerance(
        sid, chart):
    # the radial form of the square-root cover is 2 profile(sqrt(|w|^2)),
    # not the profile at |sqrt(w)|^2, so it agrees to rounding, not bits
    cover, f = _n1_chart(sid, chart)
    assert isinstance(f, RadialField)
    neg = RadialField(_neg_profile, f.valid_on, name="neg")
    B = _base_rows(cover)
    for g in (f, neg):
        closed, rows = pushforward(cover, g), pushforward(cover, _plain(g))
        assert isinstance(closed, RadialField) and not isinstance(rows, ColumnField)
        want = rows.eval_many(B)
        got = closed.eval_many(B)
        assert np.all(np.abs(got - want) <= CLOSED_FORM_RTOL * np.maximum(np.abs(want), 1.0))
        assert closed.form(B[:, 0]).tobytes() == got.tobytes()
    if isinstance(cover, IdentityCover):
        # the identity cover passes the field itself
        assert pushforward(cover, f).eval_many(B).tobytes() == f.eval_many(B).tobytes()


def _mutant_square_root_profiles():
    # the upstairs profile g is a function of r^2 = |z|^2 = |w|
    def at_r2(profile):        # g(|w|^2) in place of g(|w|)
        def square_root_profile(r2, out=None):
            v = profile(r2, out=out)
            v += v
            return v
        return square_root_profile

    def undoubled(profile):    # the factor 2 of the two sheets dropped
        def square_root_profile(r2, out=None):
            return profile(np.sqrt(r2, out=out), out=out)
        return square_root_profile

    return {"g(r) in place of g(r^2)": at_r2, "no factor 2": undoubled}


@pytest.mark.parametrize("mutant", sorted(_mutant_square_root_profiles()))
def test_a_wrong_square_root_profile_fails_pushforward_construction(monkeypatch, mutant):
    cover, f = _n1_chart("S1", "w")
    pushforward(cover, f)
    monkeypatch.setattr(covers, "_square_root_profile",
                        _mutant_square_root_profiles()[mutant])
    with pytest.raises(ValueError, match="differs from its fiber sum"):
        pushforward(cover, f)


@pytest.mark.parametrize("sid, chart", _N1_CHARTS, ids=[s for s, _ in _N1_CHARTS])
def test_an_n1_form_writes_into_out_with_the_bits_of_its_allocating_call(sid, chart):
    # upstairs and pushed down, on a (K, points) translate block as the row
    # path hands it, into an out one float into a larger buffer; and the
    # profiles themselves in place
    cover, f = _n1_chart(sid, chart)
    rng = np.random.default_rng(1)
    z = (rng.uniform(-0.5, 0.5, (40, 1000)) + 1j * rng.uniform(-0.5, 0.5, (40, 1000)))
    z[0, :3] = [0j, -0.25 + 0j, complex(-0.25, -0.0)]
    pf = pushforward(cover, f)
    for form in (f.form, pf.form):
        want = form(z)
        out = np.full(z.size + 1, np.nan)[1:].reshape(z.shape)
        assert form(z, out=out) is out
        assert out.tobytes() == want.tobytes()
    r2 = np.abs(z) ** 2
    for profile in (f.profile, pf.profile):
        want = profile(r2)
        work = r2.copy()
        assert profile(work, out=work) is work
        assert work.tobytes() == want.tobytes()


def test_a_radial_form_adds_the_squares_of_the_real_and_imaginary_parts():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    f = RadialField(_neg_profile, Disk(0.0, 10.0), name="neg")
    assert f.form(z).tobytes() == (-(z.real * z.real + z.imag * z.imag)).tobytes()
    with pytest.raises(ValueError, match="one complex variable"):
        RadialField(_neg_profile, Polydisk((0, 0), (1.0, 1.0)), name="two")


def _re(z, out=None):
    return np.add(z.real, 0.0, out=out)


@pytest.mark.parametrize("cover", [PowerCover(2, Disk(0.0, 1.0)), IdentityCover(_POWER_UP)],
                         ids=["square root", "identity"])
def test_a_non_radial_n1_column_field_gives_the_root_solved_fiber_sum(cover):
    odd = ColumnField(_re, _POWER_UP, name="re")
    assert fibers_inside(cover, odd.valid_on)
    pf = pushforward(cover, odd)
    assert not isinstance(pf, ColumnField)
    B = halton_sample(cover.downstairs, 500)
    assert pf.eval_many(B).tobytes() == pushforward(cover, _plain(odd)).eval_many(B).tobytes()
    if isinstance(cover, PowerCover):
        # Re sqrt(w) + Re(-sqrt(w)) = 0 off the cut
        assert np.max(np.abs(pf.eval_many(B))) == 0.0
    else:
        assert pf.eval_many(B).tobytes() == (B[:, 0].real + 0.0).tobytes()


@pytest.mark.parametrize("case", ["unproved identity", "power 3", "unproved power"])
def test_a_radial_field_passes_only_a_proved_identity_or_square_root_cover(case):
    radial = RadialField(_abs_sq_profile, Disk(0.0, 1.5), name="sq")
    cover, f = {
        # an equal disk, but not the chart itself: containment is not proved
        "unproved identity": (IdentityCover(Disk(0.0, 1.5)), radial),
        "power 3": (PowerCover(3, Disk(0.0, 1.5)), radial),
        # the fibers stay inside, but an intersection is not proved
        "unproved power": (PowerCover(2, Disk(0.0, 1.0)), RadialField(
            _abs_sq_profile, Intersection((Disk(0.0, 1.5), Disk(0.0, 1.4))), name="sq")),
    }[case]
    assert not isinstance(pushforward(cover, f), ColumnField)
