"""Complex domains, grids, scalar fields and the discrete operators on them.

Conventions fixed here and used everywhere else:

* points of C^n are numpy arrays of shape (m, n), complex dtype; a single
  point is the m=1 row;
* a domain exposes a boundary-distance-like function that is positive
  exactly on the interior (not necessarily the metric distance); a
  polydisk's is 1-Lipschitz in R^{2n}, which is what the mollifier's
  shrink proof reads (psh.translates_stay_inside);
* the domain types are Polydisk, LevelRegion, Intersection, Complement,
  MappedRegion and ShrunkDomain; Disk (a one-axis Polydisk) and Annulus
  (a Complement of two concentric disks) are constructors;
* polydisk_radii decides once whether a domain lies in a polydisk about
  0, and with which radii; fiber containment (covers.fibers_inside) and
  the gluing sweep's overlap proof (smoothing._overlap_misses) read it;
* samplers and lattices read a domain's bounding box; opaque level sets
  and preimages have none and go through an Intersection with a box, and
  a complement is bounded by the domain it is taken within;
* lattices are anchored at the domain's center (a slice lattice at its
  basepoint): node = origin + h*(integer offsets) in every real coordinate,
  so the center is a node whenever it lies inside the domain, and the grid
  records that origin;
* the dd^c normalization is the one where, for n=1, the density of dd^c u
  is the ordinary Laplacian Delta u times dx dy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    EmptyGridError,
    ParameterError,
    UnsupportedDimensionError,
)

# Lattices with more sites than this are refused with a ParameterError.
_MAX_LATTICE_SITES = 40_000_000

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ---------------------------------------------------------------------------
# points

def as_points(z, n: Optional[int] = None) -> np.ndarray:
    """Coerce scalars / sequences / arrays to an (m, n) block."""
    a = np.asarray(z, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        # one point with several coordinates, unless n == 1
        a = a.reshape(-1, 1) if n == 1 else a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("points must form an (m, n) array")
    if n is not None and a.shape[1] != n:
        raise ValueError(f"expected points in C^{n}, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# domains

class Domain:
    """Open subset of C^n with decidable membership.

    ``boundary_distance_many`` is positive exactly on the interior.  It is a
    gauge, not necessarily the metric distance.  ``gauge_many`` is a smooth
    variant used to build shift profiles; it never exceeds the boundary
    distance, and defaults to it.
    """

    n: int

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        return self.boundary_distance_many(as_points(Z, self.n)) > 0.0

    def boundary_distance_many(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gauge_many(self, Z: np.ndarray) -> np.ndarray:
        return self.boundary_distance_many(Z)

    @property
    def center(self) -> np.ndarray:
        raise NotImplementedError

    def bbox(self):
        """((2n,) lows, (2n,) highs) real bounding box.  Raises
        NotImplementedError for a domain without one (opaque level sets and
        preimages)."""
        raise NotImplementedError

    def shrink(self, margin: float) -> "Domain":
        if margin <= 0:
            raise ValueError("shrink margin must be positive")
        return ShrunkDomain(self, margin)


def _softmin(columns: Sequence[np.ndarray], gap: float) -> np.ndarray:
    """Smooth lower bound of the pointwise min; softmin(x,..,x) = x - gap*log2(k)."""
    v = np.stack(columns, axis=0)
    if gap <= 0.0:
        return v.min(axis=0)
    t = gap / math.log(2.0)
    m = v.min(axis=0)
    return m - t * np.log(np.sum(np.exp(-(v - m) / t), axis=0))


@dataclass(frozen=True)
class Polydisk(Domain):
    """Product of the disks |z_j - c_j| < R_j; a disk is the one-axis case.

    The boundary distance min_j (R_j - |z_j - c_j|) is 1-Lipschitz for the
    Euclidean norm of R^{2n}: a point at distance > t stays inside under
    any move of norm <= t.
    """

    center_values: tuple = (0j,)
    radii: tuple = (1.0,)
    gauge_gap: float = 0.0  # softmin gap for the smooth gauge; 0 keeps hard min

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.center_values)
        rs = tuple(float(r) for r in self.radii)
        if len(cs) != len(rs) or not rs:
            raise ValueError("polydisk needs matching centers and radii")
        if min(rs) <= 0:
            raise ValueError("polydisk radii must be positive")
        object.__setattr__(self, "center_values", cs)
        object.__setattr__(self, "radii", rs)
        object.__setattr__(self, "n", len(rs))

    def _margins(self, Z):
        Z = as_points(Z, self.n)
        return [self.radii[j] - np.abs(Z[:, j] - self.center_values[j])
                for j in range(self.n)]

    def boundary_distance_many(self, Z):
        return np.min(np.stack(self._margins(Z), axis=0), axis=0)

    def gauge_many(self, Z):
        # smooth per-axis defining functions, combined by softmin; each is
        # (R^2 - |z_j - c_j|^2)/(2R) <= R - |z_j - c_j| with matching sign,
        # kink-free at the center where R - |z_j - c_j| is not differentiable
        Z = as_points(Z, self.n)
        smooth = [(self.radii[j] ** 2 - np.abs(Z[:, j] - self.center_values[j]) ** 2)
                  / (2.0 * self.radii[j]) for j in range(self.n)]
        return _softmin(smooth, self.gauge_gap)

    @property
    def center(self):
        return np.array(self.center_values, dtype=complex)

    def bbox(self):
        lo, hi = [], []
        for c, r in zip(self.center_values, self.radii):
            lo.extend((c.real - r, c.imag - r))
            hi.extend((c.real + r, c.imag + r))
        return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class LevelRegion(Domain):
    """Sublevel set {level(z) < threshold} of a vectorized level function.

    ``grad_scale`` converts level units into the common gauge scale so that
    nesting margins of level regions remain comparable with metric ones.
    The level function is opaque, so the set has no bounding box and no
    center: sample or grid it through an Intersection with a box.  Nothing
    bounds the level's gradient by grad_scale, so the gauge may overstate
    the distance to the boundary.
    """

    level: Callable[[np.ndarray], np.ndarray]
    threshold: float
    dim: int
    grad_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.dim))

    def boundary_distance_many(self, Z):
        Z = as_points(Z, self.n)
        return (self.threshold - np.asarray(self.level(Z), dtype=float)) / self.grad_scale


@dataclass(frozen=True)
class Intersection(Domain):
    """Common part of the members; its center is the first member's."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty intersection")
        ns = {d.n for d in self.members}
        if len(ns) != 1:
            raise ValueError("intersection members must share a dimension")
        object.__setattr__(self, "n", ns.pop())

    def boundary_distance_many(self, Z):
        Z = as_points(Z, self.n)
        return np.min(np.stack([d.boundary_distance_many(Z) for d in self.members]), axis=0)

    def gauge_many(self, Z):
        Z = as_points(Z, self.n)
        return np.min(np.stack([d.gauge_many(Z) for d in self.members]), axis=0)

    @property
    def center(self):
        return self.members[0].center

    def bbox(self):
        # members without a box (level sets, preimages) still constrain
        # membership, they just don't narrow the sampling box
        los, his = [], []
        for d in self.members:
            try:
                lo, hi = d.bbox()
            except NotImplementedError:
                continue
            los.append(lo)
            his.append(hi)
        if not los:
            raise NotImplementedError("no intersection member provides a bounding box")
        return np.max(np.stack(los), axis=0), np.min(np.stack(his), axis=0)


@dataclass(frozen=True)
class Complement(Domain):
    """Points of ``within`` outside the closure of ``inner``; ``within``
    bounds the complement and gives it its box and center."""

    inner: Domain
    within: Domain

    def __post_init__(self):
        if self.within.n != self.inner.n:
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "n", self.inner.n)

    def boundary_distance_many(self, Z):
        Z = as_points(Z, self.n)
        return np.minimum(-self.inner.boundary_distance_many(Z),
                          self.within.boundary_distance_many(Z))

    @property
    def center(self):
        return self.within.center

    def bbox(self):
        return self.within.bbox()


def Disk(c, r) -> Polydisk:
    """The disk |z - c| < r: the polydisk with the one axis (c, r)."""
    return Polydisk((c,), (r,))


def Annulus(c, r_inner, r_outer) -> Complement:
    """The annulus r_inner < |z - c| < r_outer: the outer disk less the
    closed inner one."""
    if not (0 < r_inner < r_outer):
        raise ValueError("annulus needs 0 < r_inner < r_outer")
    return Complement(Disk(c, r_inner), within=Disk(c, r_outer))


@dataclass(frozen=True)
class MappedRegion(Domain):
    """Preimage of ``target`` under a vectorized coordinate transform.

    Membership and gauge are read off in target coordinates; points where the
    transform blows up are outside.  Used for bookkeeping regions expressed
    in another chart's coordinates, never for grids.  The transform may
    stretch distances, so the gauge may overstate the distance to the
    boundary.
    """

    target: Domain
    transform: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.dim))

    def boundary_distance_many(self, Z):
        Z = as_points(Z, self.n)
        W = np.asarray(self.transform(Z), dtype=complex)
        good = np.isfinite(W).all(axis=1)
        out = np.full(Z.shape[0], -np.inf)
        out[good] = self.target.boundary_distance_many(W[good])
        return out


@dataclass(frozen=True)
class ShrunkDomain(Domain):
    base: Domain
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "n", self.base.n)

    def boundary_distance_many(self, Z):
        return self.base.boundary_distance_many(Z) - self.margin

    def gauge_many(self, Z):
        return self.base.gauge_many(Z) - self.margin

    @property
    def center(self):
        return self.base.center

    def bbox(self):
        lo, hi = self.base.bbox()
        return lo + self.margin, hi - self.margin

    def shrink(self, margin: float) -> "Domain":
        return ShrunkDomain(self.base, self.margin + margin)


def polydisk_radii(dom: Domain) -> Optional[Tuple[float, ...]]:
    """Radii of a polydisk about 0 that contains dom: dom itself, a shrink
    of one (its radii less the margin), or the first member of an
    intersection that has one.  The polydisk is dom itself unless dom is
    an intersection.  None for anything else, such as a box off 0 or a
    level set with no box."""
    if isinstance(dom, Polydisk):
        return None if any(dom.center_values) else dom.radii
    if isinstance(dom, ShrunkDomain) and isinstance(dom.base, Polydisk):
        radii = polydisk_radii(dom.base)
        if radii is None or min(radii) <= dom.margin:
            return None
        return tuple(r - dom.margin for r in radii)
    if isinstance(dom, Intersection):
        return next(filter(None, map(polydisk_radii, dom.members)), None)
    return None


def nesting_margin(inner: Domain, outer: Domain) -> float:
    """Operational nesting margin of inner inside outer.

    Minimum of outer's boundary distance over the first 4096 Halton points
    of the inner closure.  Positive iff (at sampling resolution) the inner
    closure sits strictly inside outer.
    """
    pts = halton_sample(inner, 4096)
    return float(np.min(outer.boundary_distance_many(pts)))


# ---------------------------------------------------------------------------
# low-discrepancy sampling

def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    idx = indices.astype(np.int64).copy()
    out = np.zeros(idx.shape, dtype=float)
    denom = 1.0
    while idx.max(initial=0) > 0:
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def halton(dim: int, count: int, start: int = 1) -> np.ndarray:
    """Halton points in [0,1)^dim, deterministic, indexed from ``start``."""
    if dim > len(_PRIMES):
        raise ValueError("halton dimension too large")
    idx = np.arange(start, start + count)
    return np.stack([_radical_inverse(idx, _PRIMES[k]) for k in range(dim)], axis=1)


def halton_sample(domain: Domain, count: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points of the domain's bbox that land inside.

    Deterministic; the Halton index stream starts at ``start`` and is shared
    by every caller that passes the same arguments.
    """
    lo, hi = domain.bbox()
    dim = lo.size
    found = []
    got = 0
    idx = start
    # thin shells in a fat bbox (discriminant bands) can sit near 1e-3
    # acceptance; the budget has to survive those before giving up
    budget = 2048 + 3000 * count
    while got < count and idx - start < budget:
        block = min(4 * count + 256, budget - (idx - start))
        u = halton(dim, block, start=idx)
        idx += block
        X = lo + u * (hi - lo)
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        keep = domain.contains_many(Z)
        if keep.any():
            found.append(Z[keep])
            got += int(keep.sum())
    if got < count:
        raise DomainError(
            f"could not draw {count} sample points inside the domain "
            f"(found {got}); the region may be too thin for its bbox")
    return np.concatenate(found, axis=0)[:count]


# ---------------------------------------------------------------------------
# grids

def reals(Z: np.ndarray) -> np.ndarray:
    """(m, 2n) real array re_1, im_1, ..., re_n, im_n of an (m, n) complex
    block; a view when the block is contiguous."""
    return np.ascontiguousarray(Z, dtype=complex).view(float)


@dataclass(frozen=True)
class Grid:
    """Lattice nodes in a domain: each node is origin + h*(integer offsets)
    in real coordinates.  origin is (2n,) real and defaults to the first
    node."""

    nodes: np.ndarray  # (m, n) complex
    h: float
    domain: Domain
    origin: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.nodes.shape[0] == 0:
            raise EmptyGridError("grid has no nodes")
        if self.origin is None:
            object.__setattr__(self, "origin", reals(self.nodes[:1])[0])

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _lattice_grid(domain: Domain, h: float, origin: np.ndarray,
                  free: Sequence[int]) -> Grid:
    """The nodes origin + h*(integer offsets) inside domain, the offsets
    ranging over the free real axes and zero on the others.

    A free axis narrower than h keeps the single site of the origin.  The
    site count is capped from the integer axis bounds, before any axis is
    allocated.
    """
    if not h > 0:
        raise ValueError("grid spacing must be positive")
    lo, hi = domain.bbox()
    o = reals(origin[None, :])[0]
    kmin = np.ceil((lo[free] - o[free]) / h - 1e-12)
    kmax = np.floor((hi[free] - o[free]) / h + 1e-12)
    narrow = kmax < kmin
    kmin[narrow] = kmax[narrow] = 0.0
    if not np.prod(kmax - kmin + 1.0) <= _MAX_LATTICE_SITES:
        raise ParameterError(f"lattice sites <= {_MAX_LATTICE_SITES}",
                             f"h = {h!r}; increase h")
    axes = [o[k:k + 1] for k in range(o.size)]
    for k, a, b in zip(free, kmin, kmax):
        axes[k] = o[k] + h * np.arange(int(a), int(b) + 1)
    X = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)
    Z = X.reshape(-1, o.size).view(complex)
    keep = domain.contains_many(Z)
    if not keep.any():
        raise EmptyGridError("no lattice point of spacing %g lies inside the domain" % h)
    return Grid(Z[keep], float(h), domain, o)


def sample_grid(domain: Domain, h: float) -> Grid:
    """Uniform lattice of spacing h inside the domain, anchored at its center.

    The anchor is always part of the candidate lattice, so a grid over a
    centered domain contains the center point whenever the center is inside.
    """
    return _lattice_grid(domain, h, domain.center, list(range(2 * domain.n)))


def sample_slice_grid(domain: Domain, h: float, free_axis: int, basepoint) -> Grid:
    """2D lattice varying one complex coordinate, others pinned at basepoint.

    Makes dense grids affordable on higher-dimensional domains: verification
    sweeps use unions of slices through the interesting locus.
    """
    base = as_points(basepoint, domain.n)[0]
    if not (0 <= free_axis < domain.n):
        raise ValueError("free_axis out of range")
    return _lattice_grid(domain, h, base, [2 * free_axis, 2 * free_axis + 1])


# ---------------------------------------------------------------------------
# scalar fields

@dataclass
class ScalarField:
    """Real-valued function on a complex domain.

    ``evaluator`` maps an (m, n) complex block to an (m,) float block and
    must be pure.  Evaluation outside ``valid_on`` raises; there is no
    silent extrapolation.  No regularity is claimed; the checks measure it.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    valid_on: Domain
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.valid_on.n

    def eval_many(self, Z, check: bool = True) -> np.ndarray:
        """Values at the rows of Z.

        The caller contract: an evaluator only ever sees rows inside
        ``valid_on``.  With check=True this call tests them and raises
        DomainError otherwise; a caller passing check=False promises it
        instead, and must be able to say why (a test it made itself on the
        same rows, or a proof made once at construction, such as fiber
        containment in covers.pushforward or the shrink soundness in
        psh.mollify).
        """
        Z = as_points(Z, self.n)
        if check:
            ok = self.valid_on.contains_many(Z)
            if not ok.all():
                bad = Z[~ok][0]
                raise DomainError(
                    f"field {self.name or '<anonymous>'} evaluated outside its "
                    f"domain, e.g. at {tuple(bad)}")
        out = np.asarray(self.evaluator(Z), dtype=float)
        if out.shape != (Z.shape[0],):
            raise ValueError("field evaluator returned a wrong shape")
        return out


# ---------------------------------------------------------------------------
# discrete operators

def _lattice_sites(X: np.ndarray, origin: np.ndarray, h: float, spacing: float):
    """Distinct lattice sites origin + h*index of the real rows X, and the
    index of each row's site.  A function of its own so that its
    temporaries are freed before the field is evaluated."""
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
    lo = K.min(axis=0)
    K -= lo
    key = np.ravel_multi_index(tuple(K.T), K.max(axis=0) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return origin + h * (K[first] + lo), inverse


def lattice_field(f: ScalarField, grid: Grid, h: float) -> ScalarField:
    """f read through the lattice origin + h*(integers) of grid.

    This is where stencil sites merge: each row is snapped to its integer
    index and each distinct index is evaluated once per call, at
    origin + h*index, so the stencils of neighbouring nodes share their
    values (levi_form_many and discrete_laplacian_many evaluate their rows
    as given).  h must divide the grid spacing; a node keeps its own bits
    when the spacing is h times a power of two.  A row more than 1e-9 steps
    off the lattice raises ParameterError; no point is moved further than
    that.  Domain membership is checked on the snapped sites, not on the
    rows as given.
    """
    return _LatticeField(f, grid.origin, h, grid.h)


class _LatticeField(ScalarField):
    """f read through a lattice (see lattice_field).  Membership is checked
    once, on the distinct snapped sites: they are the points evaluated."""

    def __init__(self, f: ScalarField, origin: np.ndarray, h: float,
                 spacing: float):
        super().__init__(self._read, f.valid_on, name=f.name)
        self._f, self._origin, self._h, self._spacing = f, origin, h, spacing

    def _read(self, Z: np.ndarray, check: bool = False) -> np.ndarray:
        sites, inverse = _lattice_sites(reals(Z), self._origin, self._h,
                                        self._spacing)
        return self._f.eval_many(sites.view(complex), check=check)[inverse]

    def eval_many(self, Z, check: bool = True) -> np.ndarray:
        return self._read(as_points(Z, self.n), check)


def stencil_offsets(n: int, h: float) -> np.ndarray:
    """Complex offsets of the finite-difference stencil, in a fixed order.

    Layout: center; per coordinate j the four axis shifts (+x, -x, +y, -y);
    per pair j<k four cross stencils (xx, yy, xy, yx) of four corners each.
    The Levi form reads all rows, the Laplacian the first 4n+1.  Both divide
    by h*h, so h must be positive and 1/(h*h) finite (ParameterError).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    h2 = h * h
    if not (h2 > 0 and 1.0 / h2 < np.inf):
        raise ParameterError("1 / (h * h) finite", f"stencil step h = {h!r}")
    offs = [np.zeros(n, dtype=complex)]
    for j in range(n):
        for d in (h, -h, 1j * h, -1j * h):
            o = np.zeros(n, dtype=complex)
            o[j] = d
            offs.append(o)
    for j in range(n):
        for k in range(j + 1, n):
            for da, db in ((h, h), (1j * h, 1j * h), (h, 1j * h), (1j * h, h)):
                for sa in (1.0, -1.0):
                    for sb in (1.0, -1.0):
                        o = np.zeros(n, dtype=complex)
                        o[j] = sa * da
                        o[k] = sb * db
                        offs.append(o)
    return np.stack(offs, axis=0)


def discrete_laplacian_many(f: ScalarField, Z, h: float) -> np.ndarray:
    """Central second-difference Laplacian over all 2n real directions."""
    Z = as_points(Z, f.n)
    m, n = Z.shape
    offs = stencil_offsets(n, h)[:4 * n + 1]
    V = f.eval_many((Z[:, None, :] + offs[None, :, :]).reshape(-1, n))
    V = V.reshape(m, offs.shape[0])
    acc = np.zeros(m)
    for k in range(2 * n):
        acc += V[:, 1 + 2 * k] + V[:, 2 + 2 * k] - 2.0 * V[:, 0]
    return acc / (h * h)


def mass_integral(f: ScalarField, disk: Domain, h: float) -> float:
    """Integral of the Laplacian density over a planar region.

    Midpoint quadrature over lattice cells of the discrete Laplacian; the
    inner differences telescope, so the value is a discrete boundary flux
    and tolerates isolated interior kinks of the potential.
    """
    if disk.n != 1:
        raise UnsupportedDimensionError("mass_integral is restricted to one variable")
    grid = sample_grid(disk, h)
    lap = discrete_laplacian_many(lattice_field(f, grid, h), grid.nodes, h)
    return float(np.sum(lap) * h * h)


# ---------------------------------------------------------------------------
# serialization

def csv_header(n: int) -> list:
    cols = []
    for j in range(1, n + 1):
        cols.extend((f"re_{j}", f"im_{j}"))
    cols.append("value")
    return cols


def dump_field_csv(f: ScalarField, grid: Grid, path: str) -> None:
    """Grid dump with header re_1,im_1,...,re_n,im_n,value."""
    vals = f.eval_many(grid.nodes)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(grid.n))
        for row, v in zip(grid.nodes, vals):
            rec = []
            for c in row:
                rec.extend((repr(float(c.real)), repr(float(c.imag))))
            rec.append(repr(float(v)))
            writer.writerow(rec)
