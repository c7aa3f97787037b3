"""Potential cocycles on chart atlases and mass integrals along curves.

A cocycle is a finite chart atlas carrying one local potential per chart,
with declared overlaps along which the potentials differ by pluriharmonic
functions.  Curves are given as parametrized patches inside single charts;
the mass of the associated (1,1)-density along a curve is computed patch by
patch with tensor Gauss-Legendre quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import CoverageError
from .geometry import (
    Domain,
    Intersection,
    MappedRegion,
    ScalarField,
    as_points,
    halton_sample,
)
from .psh import levi_form_many

TANGENT_STEP = 1e-5  # parameter step of the centered-difference curve tangents


@dataclass(frozen=True)
class CocycleChart:
    """A named chart; its domain is the potential's valid_on."""

    name: str
    potential: ScalarField


class OverlapTransform:
    """A chart transform that bounds its image of a polydisk about 0.

    floor(radii) gives, for each image coordinate j, a lower bound on
    |w_j| over the images of the rows with |z_k| < radii[k] for every k;
    0.0 where it states none.  The gluing sweep reads it to prove once that
    an overlap misses a correction's support
    (smoothing._lift_through_overlaps).  n is the dimension of the rows
    it maps.
    """

    n: int

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def floor(self, radii: Sequence[float]) -> Tuple[float, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Inversion(OverlapTransform):
    """z -> 1/z in each of the n coordinates: |1/z_j| > 1/r_j on |z_j| < r_j."""

    n: int

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / as_points(Z, self.n)

    def floor(self, radii: Sequence[float]) -> Tuple[float, ...]:
        return tuple(1.0 / r for r in radii)


class SwapChart(OverlapTransform):
    """(t1, t2) -> (t1/t2, 1/t2): |1/t2| > 1/r2 on |t2| < r2, and t1/t2
    comes arbitrarily close to 0."""

    n = 2

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = as_points(Z, self.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([Z[:, 0] / Z[:, 1], 1.0 / Z[:, 1]], axis=1)

    def floor(self, radii: Sequence[float]) -> Tuple[float, ...]:
        return (0.0, 1.0 / radii[1])


@dataclass(frozen=True)
class ChartOverlap:
    """Declared overlap: region inside chart `src`, mapped into chart `dst`.

    transform takes (m, n) complex rows in src coordinates to dst
    coordinates and must be holomorphic on the region.  An
    OverlapTransform also bounds its image, which lets the gluing sweep
    skip a lift that provably adds only zeros.
    """

    src: str
    dst: str
    region: Domain
    transform: Callable[[np.ndarray], np.ndarray]

    def map_many(self, Z: np.ndarray) -> np.ndarray:
        W = self.transform(as_points(Z, self.region.n))
        return as_points(W, None)

    def map_inside(self, Z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(mask of the rows of Z inside region, map_many of those rows).

        A region member that is a MappedRegion under this overlap's own
        transform is tested on the mapped rows, so no row is transformed
        twice: the other members are tested on Z, the rows inside them are
        mapped once, and the mapped members' targets are tested on the
        finite images.  The mask equals region.contains_many(Z) bit for bit.
        """
        Z = as_points(Z, self.region.n)
        members = (self.region.members if isinstance(self.region, Intersection)
                   else (self.region,))
        own = [isinstance(d, MappedRegion) and d.transform is self.transform
               for d in members]
        inside = np.ones(Z.shape[0], dtype=bool)
        for d, mapped in zip(members, own):
            if not mapped:
                inside &= d.contains_many(Z)
        if not inside.any():
            return inside, np.empty((0, Z.shape[1]), dtype=complex)
        W = self.map_many(Z if inside.all() else Z[inside])
        if any(own):
            finite = np.isfinite(W).all(axis=1)
            whole = finite.all()
            Wf = W if whole else W[finite]
            keep = np.ones(Wf.shape[0], dtype=bool)
            for d, mapped in zip(members, own):
                if mapped:
                    keep &= d.target.contains_many(Wf)
            if not whole:
                finite[finite] = keep
                keep = finite
            if not keep.all():
                inside[inside] = keep
                W = W[keep]
        return inside, W


@dataclass
class KahlerCocycle:
    charts: Tuple[CocycleChart, ...]
    overlaps: Tuple[ChartOverlap, ...] = ()

    def __post_init__(self):
        self.charts = tuple(self.charts)
        self.overlaps = tuple(self.overlaps)
        names = [c.name for c in self.charts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chart names")

    def chart(self, name: str) -> CocycleChart:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(name)

    def replace_potential(self, name: str, new: ScalarField) -> "KahlerCocycle":
        charts = tuple(
            CocycleChart(c.name, new) if c.name == name else c
            for c in self.charts)
        return KahlerCocycle(charts, self.overlaps)


def validate_cocycle(cocycle: KahlerCocycle) -> Dict[str, float]:
    """Check each declared overlap: the potential difference phi_src - phi_dst(T)
    must be pluriharmonic there.  Returns max |Levi| deviation per overlap.

    Levi step h = 1e-3 at 64 Halton points of the overlap region, shrunk by
    4h for the stencil slack on both sides; a deviation above 1e-4 raises.
    """
    h = 1e-3
    devs: Dict[str, float] = {}
    for ov in cocycle.overlaps:
        src = cocycle.chart(ov.src)
        dst = cocycle.chart(ov.dst)
        probe = ov.region.shrink(4.0 * h)
        Z = halton_sample(probe, 64)

        def diff(P: np.ndarray, _ov=ov, _src=src, _dst=dst) -> np.ndarray:
            return (_src.potential.eval_many(P)
                    - _dst.potential.eval_many(_ov.map_many(P)))

        L = levi_form_many(diff, Z, h)
        dev = float(np.max(np.abs(L)))
        devs[f"{ov.src}->{ov.dst}"] = dev
        if dev > 1e-4:
            raise CoverageError(
                f"overlap {ov.src}->{ov.dst}: potential difference is not "
                f"pluriharmonic (|Levi| = {dev:.3e} > 1e-4)")
    return devs


@dataclass(frozen=True)
class CurvePatch:
    """One parametrized piece of a curve, inside a single chart.

    map_many takes flattened parameter rows (k, 2) of (s, t) to chart
    coordinates (k, n).  The tangents dz/ds and dz/dt are centered finite
    differences of step TANGENT_STEP in parameter space.
    """

    chart_name: str
    map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s_range: Tuple[float, float]
    t_range: Tuple[float, float]

    def points(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        Z = self.map(S, T)
        return as_points(Z, None)

    def tangents(self, S: np.ndarray, T: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        h = TANGENT_STEP
        a = (self.points(S + h, T) - self.points(S - h, T)) / (2 * h)
        b = (self.points(S, T + h) - self.points(S, T - h)) / (2 * h)
        return a, b


def curve_mass_patch(potential: ScalarField, patch: CurvePatch) -> float:
    """Mass of dd^c(potential) restricted to one curve patch.

    The pulled-back density at parameter (s,t) with tangents a = dz/ds,
    b = dz/dt is -4 Im( sum_jk L_jk a_j conj(b_k) ), integrated ds dt by
    32 x 32 tensor Gauss-Legendre quadrature, with Levi step h = 1e-3.
    """
    x, wx = np.polynomial.legendre.leggauss(32)
    s0, s1 = patch.s_range
    t0, t1 = patch.t_range
    S = 0.5 * (s1 - s0) * x + 0.5 * (s1 + s0)
    T = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
    SS, TT = np.meshgrid(S, T, indexing="ij")
    W = np.outer(wx, wx) * (0.25 * (s1 - s0) * (t1 - t0))
    Sf, Tf = SS.ravel(), TT.ravel()

    Z = patch.points(Sf, Tf)
    a, b = patch.tangents(Sf, Tf)
    L = levi_form_many(potential, Z, 1e-3)
    pair = np.einsum("mjk,mj,mk->m", L, a, np.conj(b))
    density = -4.0 * np.imag(pair)
    return float(np.sum(density * W.ravel()))


def curve_mass(cocycle: KahlerCocycle, patches: Sequence[CurvePatch]) -> float:
    """Total mass along a curve given as disjoint patches.

    Patches must not overlap (their contributions add); chart potentials
    differing by pluriharmonic transitions give the same density, so the
    split between charts does not matter as long as the union covers the
    curve once.
    """
    total = 0.0
    for patch in patches:
        pot = cocycle.chart(patch.chart_name).potential
        total += curve_mass_patch(pot, patch)
    return total
