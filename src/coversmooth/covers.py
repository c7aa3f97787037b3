"""Branched covering models and the fiber-sum pushforward.

A cover is its downstairs chart plus fiber_rows, the raw ordered fiber
points over each base row, shape (m, degree, n); the upstairs chart is
the domain of the field pushed down.  The local models are the power map
w = z^d on a disk, the identity cover of a chart, and the Vieta map
C^2 -> C^2 sending an ordered pair of roots (z1, z2) to (z1 + z2, z1 z2):
its degree is 2 and the fiber over a point lists both orderings of the
roots.

A glued cover is a plain tuple of ChartPair (downstairs chart, upstairs
chart, local model) assignments; projective scenarios are built from
Vieta models in inverted coordinates, so no separate machinery is needed
for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError
from .geometry import (
    PROOF_SLACK,
    Domain,
    Intersection,
    Polydisk,
    ScalarField,
    as_points,
    halton_sample,
    polydisk_radii,
)


# largest difference, relative to max(|v|, 1), that pushforward accepts
# between a closed-form fiber sum and the root-solved one
CLOSED_FORM_RTOL = 1e-12


@dataclass(frozen=True)
class PowerCover:
    """w = z^d onto a disk downstairs."""

    d: int
    downstairs: Domain
    n = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("power degree must be >= 1")

    @property
    def degree(self) -> int:
        return self.d

    @property
    def kind(self) -> str:
        return f"power_{self.d}"

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        """The d roots of w, starting at the principal one; for d = 2 they
        are (sqrt(w), -sqrt(w)), one square root per row."""
        B = as_points(B, 1)
        w = B[:, 0]
        if self.d == 2:
            roots = np.empty((w.size, 2, 1), dtype=complex)
            root = np.sqrt(w)
            roots[:, 0, 0] = root
            np.negative(root, out=roots[:, 1, 0])
            return roots
        r = np.abs(w) ** (1.0 / self.d)
        theta = np.angle(w) / self.d
        ks = 2.0 * np.pi * np.arange(self.d) / self.d
        roots = r[:, None] * np.exp(1j * (theta[:, None] + ks[None, :]))
        return roots[:, :, None]


def _roots_batched(E: np.ndarray) -> np.ndarray:
    """Roots (r1, r2) of t^2 - s t + p per row (s, p), shape (m, 2)."""
    s, p = E[:, 0], E[:, 1]
    sq = np.sqrt(s * s - 4.0 * p + 0j)
    r1 = 0.5 * (s + sq)
    r2 = 0.5 * (s - sq)
    return np.stack([r1, r2], axis=1)


@dataclass(frozen=True)
class VietaCover:
    """Ordered pairs (z1, z2) over (s, p) = (z1 + z2, z1 z2)."""

    downstairs: Domain
    degree = 2
    n = 2
    kind = "vieta_2"

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        roots = _roots_batched(as_points(B, 2))
        return np.stack([roots, roots[:, ::-1]], axis=1)


def discriminant_many(B: np.ndarray) -> np.ndarray:
    """|s^2 - 4p| on the rows (s, p): zero exactly on the branch locus of
    the Vieta cover, where its two roots coincide."""
    B = as_points(B, 2)
    s, p = B[:, 0], B[:, 1]
    return np.abs(s * s - 4.0 * p)


@dataclass(frozen=True)
class IdentityCover:
    """Trivial cover of a chart by itself; degree one, no branch locus."""

    downstairs: Domain
    degree = 1
    kind = "identity"

    @property
    def n(self) -> int:
        return self.downstairs.n

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        B = as_points(B, self.n)
        return B[:, None, :]


Cover = Union[PowerCover, VietaCover, IdentityCover]


class ColumnField(ScalarField):
    """A field given by an elementwise form of its coordinate columns: its
    value at the rows Z is form(Z[:, 0], ..., Z[:, n - 1]).

    form is built from numpy ufuncs, so it broadcasts: handed array
    columns of broadcastable shapes it returns their broadcast shape, and
    each value has the bits it has at the row of the same coordinates.
    Like a ufunc it takes out=None: handed a float array of the broadcast
    shape as out, it writes its values there and returns out, with the
    bits of the call that allocates.  The evaluator calls form(*Z.T);
    psh.mollify hands it one product of per-axis translates per group of
    kernel nodes, with that group's rows of its table as out.  pushforward
    returns its n = 2 closed forms as column fields.
    """

    def __init__(self, form: Callable[..., np.ndarray], valid_on: Domain,
                 name: str):
        self.form = form
        super().__init__(self._columns, valid_on, name=name)

    def _columns(self, Z: np.ndarray) -> np.ndarray:
        return self.form(*Z.T)


class RadialField(ColumnField):
    """An n = 1 field that depends on |z|^2 alone: its value at z is
    profile(x*x + y*y), with x = Re z and y = Im z.

    profile maps squared moduli to values elementwise and takes out=None
    as a ufunc does; handed its own input as out it runs in place.  The
    form computes x*x + y*y in that order, so a caller that holds the
    squares of the real and imaginary parts of a translate (psh.mollify,
    one add per kernel node) gets the form's bits at that translate.
    pushforward passes a radial field down an identity cover unchanged and
    down the square-root cover as another radial field.
    """

    def __init__(self, profile: Callable[..., np.ndarray], valid_on: Domain,
                 name: str):
        if valid_on.n != 1:
            raise ValueError("a radial field lives on one complex variable")
        self.profile = profile
        super().__init__(self._radial, valid_on, name)

    def _radial(self, z: np.ndarray, out=None) -> np.ndarray:
        x, y = z.real, z.imag
        r2 = np.multiply(x, x, out=out)
        r2 += y * y
        return self.profile(r2, out=r2)


class SymmetricSum(ScalarField):
    """phi(z1) + phi(z2) on the bidisk of the given radius about 0.

    phi maps a complex column to a real one.  The value is the same bits
    for both orderings of a row (IEEE addition commutes).

    sp_form is the fiber sum of this field over the Vieta cover as a
    function of (s, p) = (e1, e2): it takes the two complex columns s and
    p and returns the sum over both orderings of the roots r1, r2 of
    t^2 - s t + p, that is 2 (phi(r1) + phi(r2)).  pushforward evaluates
    it in place of the roots where fiber containment is proved, after
    checking it against the root-solved sum.
    """

    def __init__(self, phi: Callable[[np.ndarray], np.ndarray], radius: float,
                 sp_form: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 name: str = ""):
        self.phi = phi
        self.sp_form = sp_form
        super().__init__(self._sum, Polydisk((0j, 0j), (float(radius),) * 2),
                         name=name)

    def _sum(self, Z: np.ndarray) -> np.ndarray:
        return self.phi(Z[:, 0]) + self.phi(Z[:, 1])


def fibers_inside(cover: Cover, dom: Domain) -> bool:
    """True when every fiber over cover.downstairs provably lies in dom.

    * identity cover: the fiber is the base point, so dom must be the
      downstairs chart itself;
    * power cover over a disk of radius R about 0: |z| <= R^(1/d);
    * Vieta cover over the polydisk (a, b) about 0: a root of
      t^2 - s t + p has |r|^2 <= a |r| + b, so |r| <= a/2 + sqrt(a^2/4 + b).

    The downstairs chart may be any domain inside such a polydisk
    (geometry.polydisk_radii).  dom must be a polydisk about 0, or a
    shrink of one, and the bound must stay below its smallest radius by
    the relative slack PROOF_SLACK, room for the rounding of the computed
    roots and of the membership test.  Anything else is not proved.
    """
    down = cover.downstairs
    if isinstance(cover, IdentityCover):
        return dom is down
    # an intersection lies inside its member's polydisk, which may leave it
    outer = polydisk_radii(down)
    inner = None if isinstance(dom, Intersection) else polydisk_radii(dom)
    if outer is None or inner is None:
        return False
    if isinstance(cover, PowerCover):
        bound = outer[0] ** (1.0 / cover.d)
    elif isinstance(cover, VietaCover):
        a, b = outer
        bound = 0.5 * a + math.sqrt(0.25 * a * a + b)
    else:
        return False
    return bound * (1.0 + PROOF_SLACK) < min(inner)


def _fiber_sum(vals: np.ndarray, deg: int) -> np.ndarray:
    """The left fold 0.0 + v_0 + v_1 + ... of each row of
    vals.reshape(-1, deg), column by column, which skips numpy's slow
    reduction along the narrow axis.  Below 8 terms numpy sums a row as the
    same fold, so this is vals.reshape(-1, deg).sum(axis=1) bit for bit on
    every shipped cover (degree 1 or 2).  The 0.0 turns a -0.0 into 0.0."""
    V = vals.reshape(-1, deg)
    out = V[:, 0] + 0.0
    for k in range(1, deg):
        out += V[:, k]
    return out


def _square_root_profile(profile: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """The profile of a radial field's fiber sum over PowerCover(2): the
    fiber over w is (r, -r) with |r|^2 = |w|, so the sum at |w|^2 = r2 is
    2 profile(sqrt(r2))."""
    def square_root_profile(r2, out=None):
        v = np.sqrt(r2, out=out)
        v = profile(v, out=v)
        v += v
        return v
    return square_root_profile


def pushforward(cover: Cover, f: ScalarField) -> ScalarField:
    """Sum of f over the raw ordered fiber rows.

    Continuous whenever f is; smooth off the closure of the branch locus.
    Every evaluation checks its base rows against the downstairs chart
    (unless its caller promises them, see ScalarField.eval_many).  Fiber
    containment is proved once here where fibers_inside can (the power,
    identity and Vieta covers over charts about 0, as shipped); the
    fiber rows are then evaluated without a membership test.  Otherwise
    every evaluation checks the fiber rows against f's domain (the upstairs
    chart), so a fiber escaping it raises rather than extrapolating.  Either
    way, construction probes that the fibers over 128 Halton points stay
    inside f's domain.

    Where containment is proved, two cases are evaluated from a closed
    form with no roots:

    * a SymmetricSum over the Vieta cover, from its sp_form in
      (s, p) = (e1, e2).  For the shipped potentials the parallelogram law
      gives |r1|^2 + |r2|^2 = (|s|^2 + |s^2 - 4p|)/2, so the kink of the
      pushforward along the diagonal is |s^2 - 4p|, the modulus of the
      discriminant;
    * a RadialField over an identity cover, which is the field itself,
      or over PowerCover(2), which is the radial field of profile
      2 profile(sqrt(r2)) (_square_root_profile).

    Construction compares the closed form with the root-solved fiber sum
    over the 128 probe points and raises ValueError where they differ by
    more than CLOSED_FORM_RTOL relative (to max(|v|, 1)).  Every other case
    (an unproved chart, any other field or cover) sums f over the whole
    root-solved fiber.

    The closed-form branches, and only they, return a ColumnField: its
    evaluator is the form at the base columns, as for any field.
    psh.mollify, where its translates are proved inside, hands an n = 2
    form the per-axis translates of each group of kernel nodes instead,
    and a radial profile the sums of per-axis squares; both give the bits
    of the row path.  Such mollified evaluations do not pass through this
    field's evaluator.
    """
    if f.n != cover.n:
        raise ValueError("field and cover dimensions differ")
    deg = cover.degree
    check = not fibers_inside(cover, f.valid_on)
    name = f"pushforward[{cover.kind}]({f.name or 'f'})"

    P = halton_sample(cover.downstairs, 128)
    rows = cover.fiber_rows(P).reshape(-1, cover.n)
    ok = f.valid_on.contains_many(rows)
    if not ok.all():
        bad = rows[~ok][0]
        raise DomainError(
            f"fiber point {tuple(bad)} escapes the upstairs chart; "
            "the cover does not satisfy fiber containment")

    closed = None
    if not check:
        down = cover.downstairs
        if isinstance(f, SymmetricSum) and isinstance(cover, VietaCover):
            closed = ColumnField(f.sp_form, down, name)
        elif isinstance(f, RadialField) and isinstance(cover, IdentityCover):
            closed = RadialField(f.profile, down, name)
        elif isinstance(f, RadialField) and isinstance(cover, PowerCover) and cover.d == 2:
            closed = RadialField(_square_root_profile(f.profile), down, name)
    if closed is not None:
        # the probe rows were tested against f's domain just above
        want = _fiber_sum(f.eval_many(rows, check=False), deg)
        err = np.abs(closed.form(*P.T) - want) / np.maximum(np.abs(want), 1.0)
        if not np.all(err <= CLOSED_FORM_RTOL):
            raise ValueError(
                f"the closed form of {f.name or 'f'} differs from its fiber "
                f"sum by {np.max(err):.3e} relative (tolerance {CLOSED_FORM_RTOL:g})")
        return closed

    def _eval(B: np.ndarray) -> np.ndarray:
        rows = cover.fiber_rows(B)
        return _fiber_sum(f.eval_many(rows.reshape(-1, cover.n), check=check), deg)

    return ScalarField(_eval, cover.downstairs, name=name)


@dataclass(frozen=True)
class ChartPair:
    """One downstairs chart with its assigned upstairs chart and local model."""

    downstairs_name: str
    upstairs_name: str
    cover: Cover
