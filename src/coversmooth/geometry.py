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
import functools
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
# Candidate sites a lattice holds at once while it is filtered.
_LATTICE_BLOCK_SITES = 2 ** 18
# Index-box sites per stencil row up to which lattice sites merge through a
# marker over the box rather than a sort (the two break even near 6).
_MARKER_SITES_PER_ROW = 4

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

HALTON_START = 1     # first index of every Halton stream halton_sample draws
GAUGE_GAP = 0.02     # softmin gap of a polydisk's smooth gauge across its axes


# ---------------------------------------------------------------------------
# points

def as_points(z, n: Optional[int]) -> np.ndarray:
    """Coerce scalars / sequences / arrays to an (m, n) block; n None
    takes the width as given."""
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


def _softmin(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Smooth lower bound of the pointwise min, returning one column as it
    is; softmin(x,..,x) = x - GAUGE_GAP*log2(k)."""
    if len(columns) == 1:
        return columns[0]
    v = np.stack(columns, axis=0)
    t = GAUGE_GAP / math.log(2.0)
    m = v.min(axis=0)
    return m - t * np.log(np.sum(np.exp(-(v - m) / t), axis=0))


@dataclass(frozen=True)
class Polydisk(Domain):
    """Product of the disks |z_j - c_j| < R_j; a disk is the one-axis case.

    The boundary distance min_j (R_j - |z_j - c_j|) is 1-Lipschitz for the
    Euclidean norm of R^{2n}: a point at distance > t stays inside under
    any move of norm <= t.
    """

    center_values: tuple
    radii: tuple

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
        # a zero centre takes |z_j| as it is: subtracting 0j keeps its bits
        Z = as_points(Z, self.n)
        return [r - np.abs(Z[:, j] - c if c else Z[:, j])
                for j, (c, r) in enumerate(zip(self.center_values, self.radii))]

    def boundary_distance_many(self, Z):
        # a left fold: one axis returns its margin column as it is
        return functools.reduce(np.minimum, self._margins(Z))

    def gauge_many(self, Z):
        # smooth per-axis defining functions, combined by softmin; each is
        # (R^2 - |z_j - c_j|^2)/(2R) <= R - |z_j - c_j| with matching sign,
        # kink-free at the center where R - |z_j - c_j| is not differentiable
        Z = as_points(Z, self.n)
        smooth = [(self.radii[j] ** 2 - np.abs(Z[:, j] - self.center_values[j]) ** 2)
                  / (2.0 * self.radii[j]) for j in range(self.n)]
        return _softmin(smooth)

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
    n: int
    grad_scale: float = 1.0

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
    n: int

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


PROOF_SLACK = 1e-9   # relative room for rounding in each containment proved once


def nesting_margin(inner: Domain, *outers: Domain) -> Tuple[float, ...]:
    """Operational nesting margins of inner inside each of outers.

    One margin per outer, in order: the minimum of that outer's boundary
    distance over the first 4096 Halton points of the inner closure.  It is
    positive iff (at sampling resolution) the inner closure sits strictly
    inside the outer.  The sample is drawn once for all outers, so each
    margin is the one a call with that outer alone gives.  At least one
    outer is needed (ValueError).
    """
    if not outers:
        raise ValueError("nesting_margin needs at least one outer domain")
    pts = halton_sample(inner, 4096)
    return tuple(float(np.min(outer.boundary_distance_many(pts))) for outer in outers)


# ---------------------------------------------------------------------------
# low-discrepancy sampling

def _add_digits(out: np.ndarray, idx: np.ndarray, base: int,
                denom: float) -> np.ndarray:
    """Add the base-``base`` digits of idx to out in place, lowest first,
    the lowest divided by denom * base; returns out.  One floor division
    per digit; the scalar top runs out of digits exactly when every index
    does."""
    top = int(idx.max(initial=0))
    while top > 0:
        denom *= base
        q = idx // base
        out += (idx - q * base) / denom
        idx = q
        top //= base
    return out


def _digit_table(base: int) -> np.ndarray:
    """Radical inverses of 0 .. base^k - 1, the largest k with base^k <=
    4096, by _add_digits itself: the same additions in the same order as
    the low k digits of any index."""
    size = base
    while size * base <= 4096:
        size *= base
    return _add_digits(np.zeros(size), np.arange(size), base, 1.0)


_DIGIT_TABLES = {base: _digit_table(base) for base in _PRIMES}


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    # the low k digits' partial sum from the table, then the higher digits
    # on top, starting at denom = base^k; a sum the digit loop would reach
    # one digit at a time, bit for bit
    table = _DIGIT_TABLES[base]
    high, low = np.divmod(indices.astype(np.int64), table.size)
    return _add_digits(table[low], high, base, float(table.size))


def halton(dim: int, count: int, start: int) -> np.ndarray:
    """Halton points in [0,1)^dim, deterministic, indexed from ``start``
    (>= 0): a C-ordered (count, dim) array whose column k is the radical
    inverse in the k-th prime base, filled column by column."""
    if dim > len(_PRIMES):
        raise ValueError("halton dimension too large")
    idx = np.arange(start, start + count)
    u = np.empty((count, dim))
    for k in range(dim):
        u[:, k] = _radical_inverse(idx, _PRIMES[k])
    return u


def _box_points(lo: np.ndarray, hi: np.ndarray, count: int,
                start: int) -> np.ndarray:
    """The Halton points start .. start + count - 1 scaled into the real box
    [lo, hi) in place, as an (count, n) complex view of the (count, 2n)
    block.  In a finite box no coordinate lo + u * (hi - lo) is -0.0, so
    the view has the bits of X[:, 0::2] + 1j * X[:, 1::2]."""
    u = halton(lo.size, count, start)
    u *= hi - lo
    u += lo
    return u.view(complex)


def halton_sample(domain: Domain, count: int) -> np.ndarray:
    """First ``count`` Halton points of the domain's bbox that land inside.

    Deterministic; the Halton index stream starts at HALTON_START and is
    shared by every caller that passes the same arguments.  Until the first hit
    the budget is a one-point draw's (2048 + 3000 candidates, checked at the
    end of each block), so an empty region raises DomainError without
    spending the whole budget.  A count of 0 gives an empty (0, n) block;
    a negative count raises ValueError.  Each block of candidates is a
    complex view of its scaled Halton block (_box_points), with the bits
    of pairing the real columns as re + 1j * im.
    """
    if count < 0:
        raise ValueError(f"halton_sample needs a count >= 0, got {count}")
    lo, hi = domain.bbox()
    found = [np.empty((0, lo.size // 2), dtype=complex)]
    got = 0
    idx = HALTON_START
    # thin shells in a fat bbox (discriminant bands) can sit near 1e-3
    # acceptance; the budget has to survive those before giving up
    budget = 2048 + 3000 * count
    while got < count and idx - HALTON_START < (budget if got else 2048 + 3000):
        block = min(4 * count + 256, budget - (idx - HALTON_START))
        Z = _box_points(lo, hi, block, idx)
        idx += block
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


class Grid:
    """Lattice nodes in a domain: each node is origin + h*(integer offsets)
    in real coordinates.  origin is (2n,) real and defaults to the first
    node.

    A grid built from explicit nodes holds them.  A lattice grid
    (_lattice_grid) holds only a membership bit per candidate and gathers
    its nodes from the lattice axes on every read, so no pass over it
    holds the whole node array: blocks(size) reads the nodes in order as
    they are enumerated, and nodes joins them into one array.
    """

    def __init__(self, nodes: np.ndarray, h: float, domain: Domain,
                 origin: Optional[np.ndarray] = None):
        if nodes.ndim != 2 or nodes.shape[0] == 0:
            raise EmptyGridError("grid has no nodes")
        if origin is None:
            origin = reals(nodes[:1])[0]
        self._bind(lambda: (nodes,), nodes.shape, h, domain, origin)

    def _bind(self, node_blocks, shape, h, domain, origin) -> None:
        self._node_blocks = node_blocks
        self._size, self.n = shape
        self.h, self.domain, self.origin = h, domain, origin

    def __len__(self) -> int:
        return self._size

    @property
    def nodes(self) -> np.ndarray:
        """(m, n) complex: every node, in order, joined afresh per read."""
        parts = list(self._node_blocks())
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def blocks(self, size: int):
        """The nodes in order, in blocks of size rows and a shorter last
        one: the blocks that slicing the joined nodes gives, with the rows
        an enumerated block leaves over carried into the next."""
        carry = None
        for Z in self._node_blocks():
            if carry is not None:
                Z, carry = np.concatenate((carry, Z)), None
            stop = len(Z) - len(Z) % size
            for lo in range(0, stop, size):
                yield Z[lo:lo + size]
            if stop < len(Z):
                carry = Z[stop:]
        if carry is not None:
            yield carry


def _lattice_grid(domain: Domain, h: float, origin: np.ndarray,
                  free: Sequence[int]) -> Grid:
    """The nodes origin + h*(integer offsets) inside domain, the offsets
    ranging over the free real axes and zero on the others.

    A free axis narrower than h keeps the single site of the origin.  The
    site count is capped from the integer axis bounds, before any axis is
    allocated.  The candidates are enumerated in blocks of whole slices of
    the first free axis, at most _LATTICE_BLOCK_SITES of them unless one
    slice holds more, and each block is tested for membership once, here;
    the grid keeps each block's mask, packed to a bit per candidate, and
    gathers the block's kept nodes when it is read.  In ij order the kept
    blocks join into the nodes a single pass would keep.
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
    first = axes[free[0]]
    step = max(1, _LATTICE_BLOCK_SITES * first.size // math.prod(map(len, axes)))
    starts = range(0, first.size, step)

    def sites(s: int, mask: Optional[np.ndarray]) -> np.ndarray:
        # block s's candidates in ij order (mask None), or those its packed
        # mask keeps, gathered per axis without building the whole block
        part = list(axes)
        part[free[0]] = first[s:s + step]
        cols = np.meshgrid(*part, indexing="ij", copy=False)
        if mask is not None:
            shape = cols[0].shape
            keep = np.unpackbits(mask, count=math.prod(shape)).view(bool).reshape(shape)
            cols = [c[keep] for c in cols]
        return np.stack(cols, axis=-1).reshape(-1, o.size).view(complex)

    masks, count = [], 0
    for s in starts:
        inside = domain.contains_many(sites(s, None))
        count += np.count_nonzero(inside)
        masks.append(np.packbits(inside))
    if not count:
        raise EmptyGridError("no lattice point of spacing %g lies inside the domain" % h)

    g = Grid.__new__(Grid)
    g._bind(lambda: (sites(s, mask) for s, mask in zip(starts, masks)),
            (int(count), o.size // 2), float(h), domain, o)
    return g


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

    def eval_stencil(self, Z, offsets: np.ndarray) -> np.ndarray:
        """Values at Z[i] + offsets[a], shape (m, k): the m * k rows of
        stencil_rows in one checked eval_many call.  A lattice field
        (lattice_field) reads the same values without building the rows."""
        Z = as_points(Z, self.n)
        V = self.eval_many(stencil_rows(Z, offsets))
        return V.reshape(Z.shape[0], offsets.shape[0])


# ---------------------------------------------------------------------------
# discrete operators

def _lattice_index(X: np.ndarray, origin: np.ndarray, h: float,
                   spacing: float) -> np.ndarray:
    """The lattice index (X - origin) / h of the real rows X, as a C-ordered
    (2n, rows) int64 block, so that every per-coordinate step after it
    (bounds, ravel) runs along a contiguous row.  A row more than 1e-9
    steps off the lattice raises ParameterError."""
    q = np.subtract(X.T, origin[:, None], order="C")
    q /= h
    K = np.rint(q)
    q -= K
    off = float(np.max(np.abs(q, out=q), initial=0.0))
    if not off <= 1e-9:
        raise ParameterError(
            "stencil rows on the grid lattice",
            f"step h = {h!r}, grid spacing {spacing!r}: a row lies {off:.3g} "
            f"steps off; h must divide the spacing")
    del q
    return K.astype(np.int64)


def _distinct_sites(K: np.ndarray, steps: np.ndarray, origin: np.ndarray,
                    h: float):
    """Distinct lattice sites origin + h*index among the indices
    K[:, i] + steps[:, a] of the (2n, m) nodes K and (2n, k) steps, in
    ascending raveled index, and the index of each one's site, node-major
    (i, then a).  K is shifted in place.

    The index box is the nodes' box widened by the steps' box, the box of
    the m * k indices themselves.  Raveling is linear, so an index's key
    is its node's key plus its step's: the m node keys and k step keys are
    raveled once each and added, and no (m * k, 2n) index block is built.
    Where the box holds at most _MARKER_SITES_PER_ROW sites per index, the
    keys are marked in an intp array over the box; the marked positions
    are the distinct keys, and the marker's running count numbers them,
    with no sort.  A sparser box goes through np.unique, which is then
    cheaper.  Both give np.unique's sites and order."""
    if not K.shape[1]:
        return np.empty((0, K.shape[0])), np.zeros(0, dtype=np.intp)
    klo, slo = K.min(axis=1), steps.min(axis=1)
    lo = klo + slo
    dims = tuple(int(d) + 1 for d in K.max(axis=1) + steps.max(axis=1) - lo)
    K -= klo[:, None]
    key = np.add.outer(np.ravel_multi_index(K, dims),
                       np.ravel_multi_index(steps - slo[:, None], dims)).ravel()
    box = math.prod(dims)
    if box > _MARKER_SITES_PER_ROW * key.size:
        distinct, inverse = np.unique(key, return_inverse=True)
    else:
        mark = np.zeros(box, dtype=np.intp)
        mark[key] = 1
        distinct = np.flatnonzero(mark)
        np.cumsum(mark, out=mark)
        inverse = mark[key]
        inverse -= 1
    sites = np.empty((distinct.size, len(dims)))
    for j, c in enumerate(np.unravel_index(distinct, dims)):
        sites[:, j] = origin[j] + h * (c + lo[j])
    return sites, inverse


def lattice_field(f: ScalarField, grid: Grid, h: float) -> ScalarField:
    """f read through the lattice origin + h*(integers) of grid.

    This is where stencil sites merge.  eval_stencil, which
    levi_form_many and discrete_laplacian_many call, snaps each node to
    its integer index once and each stencil offset to an integer step,
    and evaluates each distinct node + step once per call, at
    origin + h*index, so the stencils of neighbouring nodes share their
    values and no (nodes * offsets, n) row block is built.  The field's
    evaluator is its zero-offset stencil.  h must divide the grid
    spacing; a node keeps its own bits when the spacing is h times a
    power of two.  A node or offset more than 1e-9 steps off the lattice
    raises ParameterError; no point is moved further than that.  Domain
    membership is checked on the snapped sites.
    """
    return _LatticeField(f, grid.origin, h, grid.h)


class _LatticeField(ScalarField):
    """f read through a lattice (see lattice_field).  Membership is checked
    once, on the distinct snapped sites: they are the points evaluated."""

    def __init__(self, f: ScalarField, origin: np.ndarray, h: float,
                 spacing: float):
        zero = np.zeros((1, f.n), dtype=complex)
        super().__init__(lambda Z: self.eval_stencil(Z, zero)[:, 0],
                         f.valid_on, name=f.name)
        self._f, self._origin, self._h, self._spacing = f, origin, h, spacing

    def eval_stencil(self, Z, offsets: np.ndarray) -> np.ndarray:
        Z = as_points(Z, self.n)
        steps = _lattice_index(reals(offsets), np.zeros(2 * self.n), self._h,
                               self._spacing)
        sites, inverse = _distinct_sites(
            _lattice_index(reals(Z), self._origin, self._h, self._spacing),
            steps, self._origin, self._h)
        V = self._f.eval_many(sites.view(complex))
        return V[inverse].reshape(Z.shape[0], offsets.shape[0])


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


def stencil_rows(Z: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The (m * k, n) rows Z[i] + offsets[a] of an (m, n) block, node-major."""
    return (Z[:, None, :] + offsets[None, :, :]).reshape(-1, Z.shape[1])


def discrete_laplacian_many(f: ScalarField, Z, h: float) -> np.ndarray:
    """Central second-difference Laplacian over all 2n real directions,
    from f.eval_stencil on the first 4n + 1 stencil offsets."""
    Z = as_points(Z, f.n)
    n = Z.shape[1]
    V = f.eval_stencil(Z, stencil_offsets(n, h)[:4 * n + 1])
    acc = np.zeros(Z.shape[0])
    for k in range(2 * n):
        acc += V[:, 1 + 2 * k] + V[:, 2 + 2 * k] - 2.0 * V[:, 0]
    return acc / (h * h)


def mass_integral(f: ScalarField, disk: Domain, h: float) -> float:
    """Integral of the Laplacian density over a planar region, as the
    boundary flux of f.

    The area sum of the discrete Laplacian over the lattice nodes G of
    spacing h in the region, sum_x lap f(x) h^2, telescopes along each
    axis direction e: sum_x [f(x+e) - f(x)] keeps only the edges that
    leave G.  So the mass is the sum, over the four directions e of
    stencil_offsets and the nodes x with x+e off G, of f(x+e) - f(x).  It
    reads only those edge nodes and their outer neighbours, a subset of
    the area sum's stencil sites, each distinct one once, at the lattice
    site of its integer index; isolated interior kinks of the potential do
    not enter it.
    """
    if disk.n != 1:
        raise UnsupportedDimensionError("mass_integral is restricted to one variable")
    grid = sample_grid(disk, h)
    K = _lattice_index(reals(grid.nodes), grid.origin, h, h)
    steps = _lattice_index(reals(stencil_offsets(1, h)[1:5]), np.zeros(2), h, h)
    # the node indices, framed by one free index on every side
    lo = K.min(axis=1, keepdims=True) - 1
    on_grid = np.zeros(K.max(axis=1) - lo[:, 0] + 2, dtype=bool)
    on_grid[tuple(K - lo)] = True
    inner, outer = [], []
    for step in steps.T[:, :, None]:
        leaves = K[:, ~on_grid[tuple(K - lo + step)]]
        inner.append(leaves)
        outer.append(leaves + step)
    m = sum(e.shape[1] for e in outer)
    sites, inverse = _distinct_sites(np.concatenate(outer + inner, axis=1),
                                     np.zeros((2, 1), dtype=np.int64), grid.origin, h)
    V = f.eval_many(sites.view(complex))[inverse]
    return float(np.sum(V[:m] - V[m:]))


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
    nodes = grid.nodes
    vals = f.eval_many(nodes)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(grid.n))
        for row, v in zip(nodes, vals):
            rec = []
            for c in row:
                rec.extend((repr(float(c.real)), repr(float(c.imag))))
            rec.append(repr(float(v)))
            writer.writerow(rec)
