"""Plurisubharmonicity machinery.

Finite-difference Levi forms, mollification by a compactly supported radial
bump, and the regularized maximum.  The Levi form is the Hermitian matrix
of mixed second derivatives d^2 u / dz_j dz_bar_k; in the package's
normalization the n=1 Levi value is a quarter of the ordinary Laplacian.
levi_form_many reads its stencil table through the field's eval_stencil;
the lattice checks read the field through geometry.lattice_field, which
snaps each node to its integer index once and merges the stencil sites of
neighbouring nodes by integer key, as every lattice read of the package
does (geometry._lattice_index, then geometry._distinct_sites).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covers import ColumnField, RadialField
from .errors import DomainError, UnsupportedDimensionError
from .geometry import (
    PROOF_SLACK,
    Domain,
    Grid,
    Polydisk,
    ScalarField,
    as_points,
    halton_sample,
    lattice_field,
    stencil_offsets,
    stencil_rows,
)

# Floats in one working block, which keeps memory flat: mollify's (K, points)
# table (with a radial field's axis rows beside it) and reg_max_many's
# (pairs, 16, 16) quadrature hold about this many, and the lattice checks read nodes in blocks of _EVAL_CHUNK // 32 + 1 (Levi,
# at most 25 stencil points a node) and _EVAL_CHUNK // 8 + 1 (Laplacian).
_EVAL_CHUNK = 250_000

MOLL_ORDER = {1: 8, 2: 6}  # mollifier's Gauss-Legendre order per real axis, by n

# Bump profile exp(-1/(1-t^2)) on (-1,1); its integral over (-1,1), computed
# once by high-order quadrature and frozen (12 digits, regression-tested).
BUMP_INTEGRAL = 0.443993816169


def bump_profile(t):
    """exp(-1/(1-t^2)) extended by zero; even, smooth, compact support."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


# ---------------------------------------------------------------------------
# Levi forms

@dataclass(frozen=True)
class PshReport:
    min_eigenvalue: float
    argmin_location: tuple  # the node's coordinates, as complex numbers


def levi_form_many(f, Z, h: float) -> np.ndarray:
    """Levi matrices at a block of points, shape (m, n, n), Hermitian.

    f may be a ScalarField, read at the m * len(stencil_offsets(n, h))
    stencil points in one eval_stencil call, or any callable taking the
    (m * k, n) complex rows of stencil_rows.  Read f through lattice_field to
    merge the sites that neighbouring nodes share.
    """
    Z = as_points(Z, getattr(f, "n", None))
    m, n = Z.shape
    offs = stencil_offsets(n, h)
    if isinstance(f, ScalarField):
        V = f.eval_stencil(Z, offs)
    else:
        V = np.asarray(f(stencil_rows(Z, offs)), dtype=float).reshape(m, offs.shape[0])

    L = np.zeros((m, n, n), dtype=complex)
    c = V[:, 0]
    pos = 1
    inv_h2 = 1.0 / (h * h)
    for j in range(n):
        px, mx, py, my = (V[:, pos], V[:, pos + 1], V[:, pos + 2], V[:, pos + 3])
        pos += 4
        L[:, j, j] = 0.25 * (px + mx + py + my - 4.0 * c) * inv_h2
    for j in range(n):
        for k in range(j + 1, n):
            cross = []
            for _ in range(4):  # xx, yy, xy, yx in stencil order
                pp, pm, mp, mm = (V[:, pos], V[:, pos + 1], V[:, pos + 2], V[:, pos + 3])
                pos += 4
                cross.append((pp - pm - mp + mm) * (0.25 * inv_h2))
            fxx, fyy, fxy, fyx = cross
            val = 0.25 * ((fxx + fyy) + 1j * (fxy - fyx))
            L[:, j, k] = val
            L[:, k, j] = np.conj(val)
    return L


def hermitian_min_eigenvalues(L: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in an (m, n, n) stack.

    Closed forms for n <= 2, which keep whole Levi grids free of per-matrix
    LAPACK calls; UnsupportedDimensionError for larger n.
    """
    n = L.shape[1]
    if n == 1:
        return L[:, 0, 0].real.copy()
    if n == 2:
        a = L[:, 0, 0].real
        d = L[:, 1, 1].real
        b = L[:, 0, 1]
        disc = np.sqrt((a - d) ** 2 + 4.0 * (b.real ** 2 + b.imag ** 2))
        return 0.5 * (a + d - disc)
    raise UnsupportedDimensionError("Levi eigenvalues shipped for n <= 2")


def min_levi_eigenvalue(f: ScalarField, g: Grid, h: float) -> PshReport:
    """Minimum over grid nodes of the smallest Levi eigenvalue.

    f is read through the grid's lattice at step h (lattice_field), so h
    must divide the grid spacing.  The nodes are read in blocks as the
    grid enumerates them (Grid.blocks).  A NaN eigenvalue is the minimum,
    located at the first node that has one.
    """
    fl = lattice_field(f, g, h)
    mins, where = [], []
    for Z in g.blocks(_EVAL_CHUNK // 32 + 1):
        eigs = hermitian_min_eigenvalues(levi_form_many(fl, Z, h))
        i = int(np.argmin(eigs))
        mins.append(eigs[i])
        where.append(tuple(complex(c) for c in Z[i]))
    k = int(np.argmin(mins))
    return PshReport(float(mins[k]), where[k])


# ---------------------------------------------------------------------------
# C2 proxy

def laplacian_sup(f: ScalarField, g: Grid, h: float) -> float:
    """Sup over grid nodes of |discrete Laplacian|, NaN when any node's is;
    f is read through the grid's lattice at step h, and the nodes in
    blocks, as in min_levi_eigenvalue."""
    from .geometry import discrete_laplacian_many

    fl = lattice_field(f, g, h)
    sups = [np.max(np.abs(discrete_laplacian_many(fl, Z, h)))
            for Z in g.blocks(_EVAL_CHUNK // 8 + 1)]
    return float(np.max(sups))


def c2_ratio(sup_h: float, sup_h2: float) -> float:
    """sup_h2 / sup_h, guarded: 1.0 when both sups vanish (a flat field is
    C2), inf when only the coarse one does."""
    if sup_h == 0.0:
        return 1.0 if sup_h2 == 0.0 else np.inf
    return sup_h2 / sup_h


# ---------------------------------------------------------------------------
# mollification

@dataclass(frozen=True)
class MollifierKernel:
    offsets: np.ndarray   # (K, n) complex, inside the unit ball of R^{2n}
    weights: np.ndarray   # (K,) positive, sums to 1
    m2_unit: float        # second moment of the unit-radius discrete kernel


@lru_cache(maxsize=None)
def mollifier_kernel(two_n: int, order: int) -> MollifierKernel:
    """Tensor Gauss-Legendre discretization of the radial bump on the unit ball.

    Nodes outside the ball carry zero weight and are dropped; the remaining
    weights are normalized to total mass one, which makes constants exact and
    keeps plurisubharmonicity (positive mixture of translates).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    grids = np.meshgrid(*([x] * two_n), indexing="ij")
    ws = np.meshgrid(*([w] * two_n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wt = np.prod(np.stack([g.ravel() for g in ws], axis=1), axis=1)
    r = np.linalg.norm(pts, axis=1)
    rho = bump_profile(r)
    keep = rho > 0.0
    pts, wt, rho, r = pts[keep], wt[keep], rho[keep], r[keep]
    full = wt * rho
    full = full / full.sum()
    m2 = float(np.sum(full * r * r))
    cplx = pts[:, 0::2] + 1j * pts[:, 1::2]
    return MollifierKernel(cplx, full, m2)


def translates_stay_inside(dom: Domain, eps: float, reach: float) -> bool:
    """True when every translate z - eps*o, |o| <= reach < 1, of a point z
    of dom.shrink(eps) provably lies in dom.

    Proved for a polydisk, the shape of every chart a shipped field lives
    on: its boundary distance is 1-Lipschitz, so it drops by at most
    eps*reach along the move, and (1 - reach)*eps is left over.  That slack
    must exceed PROOF_SLACK times the coordinate scale of dom's bounding
    box, for rounding.  Any other domain is not proved.
    """
    if not isinstance(dom, Polydisk):
        return False
    lo, hi = dom.bbox()
    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo, hi]))))
    return (1.0 - reach) * eps > PROOF_SLACK * scale


def _axis_product(offsets: np.ndarray):
    """Each complex axis's distinct kernel offsets, ascending (np.unique's
    order), and each kernel node's index in the raveled product of those
    axes.  The tensor kernel lists its nodes in that product's order, so
    the index strictly increases; ValueError where it does not."""
    axes, inverse = zip(*(np.unique(col, return_inverse=True) for col in offsets.T))
    flat = np.ravel_multi_index(inverse, tuple(a.size for a in axes))
    if not np.all(np.diff(flat) > 0):
        raise ValueError("kernel nodes out of the order of their per-axis product")
    return axes, flat


def _node_groups(offsets: np.ndarray) -> list:
    """The kernel's nodes (n <= 2) as a few full products of per-axis
    offsets, one per set of first-axis offsets that share the same
    second-axis offsets (_axis_product's index).

    Each group is (cols, nodes): cols[j] holds the group's offsets on axis
    j, ascending, and nodes, of shape tuple(c.size for c in cols), holds
    the kernel position of each cell of their product.  Every node is in
    exactly one group.  For MOLL_ORDER[2] the groups are 4 x 16, 8 x 12
    and 4 x 4, the 176 nodes; for n = 1 one group holds all 40.
    """
    axes, flat = _axis_product(offsets)
    first, second = np.divmod(flat, axes[1].size if len(axes) == 2 else 1)
    heads, starts = np.unique(first, return_index=True)
    # second-axis indices -> (them, the first-axis indices, their first nodes)
    shared = {}
    for head, start, run in zip(heads, starts, np.split(second, starts[1:])):
        _, hs, ss = shared.setdefault(run.tobytes(), (run, [], []))
        hs.append(head)
        ss.append(start)
    groups = []
    for run, hs, ss in shared.values():
        cols = (axes[0][hs],) + ((axes[1][run],) if len(axes) == 2 else ())
        nodes = np.add.outer(ss, np.arange(run.size))
        groups.append((cols, nodes.reshape(tuple(c.size for c in cols))))
    return groups


# mollify's product path writes each block's (K, points) table of form
# values here: one buffer for every mollified field, grown to the largest
# block it has served.  Fresh temporaries of this size cost page faults on
# every block, and a buffer per field holds memory per field.
_work = np.empty(0)


def _workspace(size: int) -> np.ndarray:
    """The first size floats of the shared workspace, grown to fit."""
    global _work
    if _work.size < size:
        _work = np.empty(size)
    return _work[:size]


def mollify(f: ScalarField, eps: float) -> ScalarField:
    """Convolution with the radial bump of radius eps, by fixed quadrature.

    The valid domain shrinks by eps in the domain's own gauge units.  On a
    polydisk (translates_stay_inside) that shrink is sound: every kernel
    translate of a point of the shrunken domain lies in f's domain, which
    is proved once here, and the translates are evaluated without a
    membership test.  On any other domain, or with an eps too small for
    the rounding slack, every translate is checked and one that escapes
    raises DomainError.  The kernel order is MOLL_ORDER[f.n], and any other
    n is unsupported.  meta records the kernel node count, kernel_nodes.

    Points go in blocks of _EVAL_CHUNK // K, or of _EVAL_CHUNK // (K + 16)
    on the radial path below, whose axis rows share the workspace.  A block
    fills a (K, points) table whose row k holds f at the translates z - eps * o_k, the nodes
    in _node_groups order, and the kernel sum folds it in that order:
    acc = w_0 * row_0, then acc += w_k * row_k.  Every step is elementwise,
    so a point's value does not depend on its block or its place in it.

    On the row path the translates reach f as one (K * points, n) array
    whose every coordinate is a contiguous column.  A ColumnField
    (covers.pushforward's closed forms) whose translates are proved inside
    takes a product path instead, which gives the row path's bits:

    * a form (the n = 2 closed forms): each node group is a full product
      of per-axis offsets (for n = 2, 4 x 16 + 8 x 12 + 4 x 4 = 176 cells,
      exactly the nodes),
      and f.form broadcasts once over the product of the group's
      translates z_j - (eps * a), points innermost, into the group's rows
      of the table.  Each translate is the same subtraction and every
      ufunc of the form is elementwise;
    * a RadialField (n = 1): with x = Re z and y = Im z, the rows
      (x - eps a_i)^2 and (y - eps b_j)^2 over the 8 abscissae of each
      real axis, then one add per kernel node (a_i, b_j), a run of b_j per
      a_i, into the table, and the profile once over the table in place.
      These are the real and imaginary parts of the translate's
      subtraction, squared and added as the form adds them; no complex
      translate is built.

    The table and the axis rows live in the shared workspace.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.n not in MOLL_ORDER:
        raise UnsupportedDimensionError(f"no mollifier order for n = {f.n}")
    kern = mollifier_kernel(2 * f.n, MOLL_ORDER[f.n])
    new_domain = f.valid_on.shrink(eps)
    # probe that the shrunken domain is non-empty
    try:
        halton_sample(new_domain, 1)
    except DomainError as exc:
        raise DomainError(f"eps={eps} too large for the field domain") from exc

    node_groups = _node_groups(kern.offsets)
    order = np.concatenate([nodes.ravel() for _, nodes in node_groups])
    offsets, weights = kern.offsets[order], kern.weights[order]
    K = offsets.shape[0]
    reach = float(np.max(np.linalg.norm(offsets, axis=1)))
    check = not translates_stay_inside(f.valid_on, eps, reach)

    n, width = f.n, K   # workspace floats per point
    if isinstance(f, RadialField) and not check:
        # node k sits at (xs[i], ys[j]); the nodes of one xs[i] are a
        # contiguous run of ys, so each run's table rows are one add
        steps = eps * offsets[:, 0]
        xs, xi = np.unique(steps.real, return_inverse=True)
        ys, yi = np.unique(steps.imag, return_inverse=True)
        if not np.all(np.diff(yi)[np.diff(xi) == 0] == 1):
            raise ValueError("the nodes of one real abscissa skip an imaginary one")
        starts = np.flatnonzero(np.diff(xi, prepend=-1))
        runs = [(xi[a], yi[a], a, b) for a, b in zip(starts, [*starts[1:], K])]
        nx, ny = xs.size, ys.size
        width = K + nx + ny

        def _values(Zb: np.ndarray) -> np.ndarray:
            mb = Zb.shape[0]
            work = _workspace(width * mb)
            rows = work[:K * mb].reshape(K, mb)
            dx = work[K * mb:(K + nx) * mb].reshape(nx, mb)
            dy = work[(K + nx) * mb:].reshape(ny, mb)
            np.square(np.subtract(Zb[:, 0].real, xs[:, None], out=dx), out=dx)
            np.square(np.subtract(Zb[:, 0].imag, ys[:, None], out=dy), out=dy)
            for i, j, a, b in runs:
                np.add(dx[i], dy[j:j + b - a], out=rows[a:b])
            return f.profile(rows, out=rows)
    elif isinstance(f, ColumnField) and not check:
        # each group's axis j steps on axis j of a (u_0, ..., u_{n-1},
        # points) product, and its nodes are the table rows a:b
        ends = np.cumsum([nodes.size for _, nodes in node_groups])
        groups = [([(eps * c).reshape([-1 if i == j else 1 for i in range(n + 1)])
                    for j, c in enumerate(cols)], nodes.shape, b - nodes.size, b)
                  for (cols, nodes), b in zip(node_groups, ends)]

        def _values(Zb: np.ndarray) -> np.ndarray:
            mb = Zb.shape[0]
            rows = _workspace(mb * K).reshape(K, mb)
            for steps, shape, a, b in groups:
                f.form(*(Zb[:, j] - s for j, s in enumerate(steps)),
                       out=rows[a:b].reshape(shape + (mb,)))
            return rows
    else:
        steps = eps * offsets.T[:, :, None]  # (n, K, 1)

        def _values(Zb: np.ndarray) -> np.ndarray:
            # (n, K, mb) in C order, so each coordinate of the (K * mb, n)
            # translate rows is one contiguous column
            W = np.subtract(Zb.T[:, None, :], steps, order="C").reshape(n, -1).T
            return f.eval_many(W, check=check).reshape(K, Zb.shape[0])

    block = max(1, _EVAL_CHUNK // width)

    def _eval(Z: np.ndarray) -> np.ndarray:
        out = np.empty(Z.shape[0])
        for lo in range(0, Z.shape[0], block):
            rows = _values(Z[lo:lo + block])
            acc, term = out[lo:lo + block], np.empty(rows.shape[1])
            np.multiply(rows[0], weights[0], out=acc)
            for row, w in zip(rows[1:], weights[1:]):
                acc += np.multiply(row, w, out=term)
        return out

    g = ScalarField(_eval, new_domain, name=f"mollify({f.name or 'f'},{eps:g})")
    g.meta["kernel_nodes"] = int(K)
    return g


# ---------------------------------------------------------------------------
# regularized maximum

@dataclass(frozen=True)
class RegMaxKernel:
    """Discretized even bump used by the regularized maximum.

    nodes/weights are the Gauss-Legendre discretization of the bump profile
    with weights normalized to sum to one, which makes the max bounds,
    symmetry, monotonicity, convexity and translation equivariance hold
    exactly for the discrete operator.
    """

    nodes: np.ndarray
    weights: np.ndarray


REGMAX_ORDER = 16    # Gauss-Legendre nodes of the regularized-max kernel


@lru_cache(maxsize=None)
def regmax_kernel() -> RegMaxKernel:
    """The kernel of order REGMAX_ORDER, built once."""
    x, w = np.polynomial.legendre.leggauss(REGMAX_ORDER)
    raw = w * bump_profile(x)
    return RegMaxKernel(x, raw / raw.sum())


def reg_max_many(T1: np.ndarray, T2: np.ndarray, eta: float) -> np.ndarray:
    """Vectorized regularized maximum of two 1-D arrays, pair by pair, with
    the exact-max shortcut.

    Whenever |t1 - t2| >= 2*eta the kernel support forces the plain max and
    that is what is returned, bit for bit.  The quadrature branch is the
    double sum over the discrete kernel of order REGMAX_ORDER, taken over
    the near pairs in chunks of _EVAL_CHUNK // REGMAX_ORDER**2, so a chunk's
    (pairs, 16, 16) quadrature is about 2 MB, the size of a mollify table.
    Each pair's sum is its own, so a pair gets the same bits alone, in any
    chunk and in any block.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    k = regmax_kernel()
    T1 = np.asarray(T1, dtype=float)
    T2 = np.asarray(T2, dtype=float)
    out = np.maximum(T1, T2)
    near = np.flatnonzero(np.abs(T1 - T2) < 2.0 * eta)
    W = k.weights[:, None] * k.weights[None, :]
    chunk = _EVAL_CHUNK // REGMAX_ORDER ** 2
    for lo in range(0, near.size, chunk):
        rows = near[lo:lo + chunk]
        a = T1[rows][:, None, None] + eta * k.nodes[None, :, None]
        b = T2[rows][:, None, None] + eta * k.nodes[None, None, :]
        out[rows] = np.einsum("mij,ij->m", np.maximum(a, b), W)
    return out
