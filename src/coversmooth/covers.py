"""Branched covering models and the fiber-sum pushforward.

A cover is its downstairs chart plus fiber_rows, the raw ordered fiber
points over each base row; the upstairs chart is the domain of the field
pushed down.  The local models are the power map w = z^d on a disk, the
identity cover of a chart, and the Vieta map C^2 -> C^2 sending an ordered
pair of roots (z1, z2) to (z1 + z2, z1 z2): its degree is 2 and the fiber
over a point lists both orderings of the roots.

A glued cover is a finite family of (downstairs chart, upstairs chart,
local model) assignments; projective scenarios are built from Vieta models
in inverted coordinates, so no separate machinery is needed for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError
from .geometry import (
    Domain,
    Intersection,
    Polydisk,
    ScalarField,
    as_points,
    halton_sample,
    polydisk_radii,
)


# relative slack a fiber bound keeps below the upstairs radius, for the
# rounding of the computed roots and of the membership test
CONTAINMENT_SLACK = 1e-9

# largest difference, relative to max(|v|, 1), that pushforward accepts
# between a closed-form fiber sum and the root-solved one
CLOSED_FORM_RTOL = 1e-12


class Cover:
    """Common interface of the local covering models."""

    degree: int
    n: int
    downstairs: Domain
    kind: str = ""

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        """All fiber points over each base row, shape (m, degree, n).

        Raw ordered lists (no clustering): the pushforward sums over them,
        which keeps it symmetric in the sheets and hence continuous across
        the branch locus.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class PowerCover(Cover):
    """w = z^d onto a disk downstairs."""

    d: int
    downstairs: Domain = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("power degree must be >= 1")
        object.__setattr__(self, "degree", self.d)
        object.__setattr__(self, "n", 1)
        object.__setattr__(self, "kind", f"power_{self.d}")

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        B = as_points(B, 1)
        w = B[:, 0]
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
class VietaCover(Cover):
    """Ordered pairs (z1, z2) over (s, p) = (z1 + z2, z1 z2)."""

    downstairs: Domain = None
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
class IdentityCover(Cover):
    """Trivial cover of a chart by itself; degree one, no branch locus."""

    domain: Domain = None

    def __post_init__(self):
        object.__setattr__(self, "degree", 1)
        object.__setattr__(self, "n", self.domain.n)
        object.__setattr__(self, "downstairs", self.domain)
        object.__setattr__(self, "kind", "identity")

    def fiber_rows(self, B: np.ndarray) -> np.ndarray:
        B = as_points(B, self.n)
        return B[:, None, :]


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
    the relative slack CONTAINMENT_SLACK.  Anything else is not proved.
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
    return bound * (1.0 + CONTAINMENT_SLACK) < min(inner)


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

    A SymmetricSum over the Vieta cover, where containment is proved, is
    evaluated from its closed form sp_form in (s, p) = (e1, e2), with no
    roots.  For the shipped potentials the parallelogram law gives
    |r1|^2 + |r2|^2 = (|s|^2 + |s^2 - 4p|)/2, so the kink of the
    pushforward along the diagonal is |s^2 - 4p|, the modulus of the
    discriminant.  Construction compares the closed form
    with the root-solved fiber sum over the 128 probe points and raises
    ValueError where they differ by more than CLOSED_FORM_RTOL relative
    (to max(|v|, 1)).  Every other case (an unproved chart, any other
    field) sums f over the whole root-solved fiber.
    """
    if f.n != cover.n:
        raise ValueError("field and cover dimensions differ")
    deg = cover.degree
    check = not fibers_inside(cover, f.valid_on)

    P = halton_sample(cover.downstairs, 128)
    rows = cover.fiber_rows(P).reshape(-1, cover.n)
    ok = f.valid_on.contains_many(rows)
    if not ok.all():
        bad = rows[~ok][0]
        raise DomainError(
            f"fiber point {tuple(bad)} escapes the upstairs chart; "
            "the cover does not satisfy fiber containment")

    if isinstance(f, SymmetricSum) and isinstance(cover, VietaCover) and not check:
        # the probe rows were tested against f's domain just above
        want = f.eval_many(rows, check=False).reshape(P.shape[0], deg).sum(axis=1)
        err = np.abs(f.sp_form(P[:, 0], P[:, 1]) - want) / np.maximum(np.abs(want), 1.0)
        if not np.all(err <= CLOSED_FORM_RTOL):
            raise ValueError(
                f"the (s, p) form of {f.name or 'f'} differs from its fiber "
                f"sum by {np.max(err):.3e} relative (tolerance {CLOSED_FORM_RTOL:g})")

        def _eval(B: np.ndarray) -> np.ndarray:
            return f.sp_form(B[:, 0], B[:, 1])
    else:
        def _eval(B: np.ndarray) -> np.ndarray:
            rows = cover.fiber_rows(B)
            vals = f.eval_many(rows.reshape(-1, cover.n), check=check)
            return vals.reshape(B.shape[0], deg).sum(axis=1)

    return ScalarField(_eval, cover.downstairs,
                       name=f"pushforward[{cover.kind}]({f.name or 'f'})")


@dataclass(frozen=True)
class ChartPair:
    """One downstairs chart with its assigned upstairs chart and local model."""

    downstairs_name: str
    upstairs_name: str
    cover: Cover


@dataclass(frozen=True)
class GluedCover:
    """A finite family of chart-pair local covering models."""

    pairs: Tuple[ChartPair, ...]

    def __post_init__(self):
        degs = {p.cover.degree for p in self.pairs}
        if len(degs) != 1:
            raise ValueError("all chart pairs must share the covering degree")
