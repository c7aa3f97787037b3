"""Local smoothing of continuous psh potentials and the gluing sweep.

The local step replaces a continuous psh potential phi on a nested triple
U cc V cc W by

    psi = M_eta( phi, phi_eps + 2*delta*sigma )

where phi_eps is the mollification of phi, sigma a smooth shift profile
equal to +1 on U and -1 outside V, and M_eta the regularized max.  When the
quantitative gates below hold, psi is psh, smooth on U, equal to phi
outside the closure of V (bit for bit here: the evaluator returns phi's
own values there), and psh-positive on the transition band.

Gates, checked against measured quantities and raised as ParameterError
with the violated condition string:

    U, V, V minus U not empty  the regions the gates sample
    margin > 0                 nesting margins and mollification slack
    tau_bound < delta          sup of (phi_eps - phi) over the band V minus U
    eta <= delta/2             shortcut collar fits inside the exactness gap
    2*delta*K_sigma < m/2      shift curvature loses to the psh lower bound m
    2*delta >= s_max + 2*eta   smooth branch still wins on all of U

The gluing sweep applies the local step chart by chart, smoothing the
accumulated field each time; corrections are lifted to the other charts
through the declared overlaps, so the cocycle relations are untouched.  A
correction is 0.0 outside its step's V, so a lift through an overlap that
provably misses V is skipped.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .cocycle import ChartOverlap, CocycleChart, KahlerCocycle, OverlapTransform
from .covers import ChartPair
from .geometry import (
    PROOF_SLACK,
    Complement,
    Domain,
    Intersection,
    ScalarField,
    as_points,
    halton_sample,
    nesting_margin,
    polydisk_radii,
)
from .psh import (
    hermitian_min_eigenvalues,
    levi_form_many,
    mollify,
    reg_max_many,
)

BAND_SAMPLES = 400   # Halton points of the band V minus U (tau_bound, m, K_sigma)
U_SAMPLES = 256      # Halton points of U (s_max)


def _bump(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def flat_step(t: np.ndarray) -> np.ndarray:
    """Monotone C-infinity step: 0 for t<=0, 1 for t>=1, exactly flat at both ends."""
    t = np.asarray(t, dtype=float)
    a = _bump(t)
    b = _bump(1.0 - t)
    return a / (a + b + np.where((a + b) == 0.0, 1.0, 0.0))


@dataclass(frozen=True)
class NestedOpens:
    """Nested triple U cc V cc W carrying the cutoff geometry."""

    U: Domain
    V: Domain
    W: Domain

    def __post_init__(self):
        if not self.U.n == self.V.n == self.W.n:
            raise ValueError("triple members must share the dimension")


@dataclass(frozen=True)
class SmoothingParams:
    eps: float
    delta: float
    eta: float
    h: float

    def __post_init__(self):
        for name in ("eps", "delta", "eta", "h"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"0 < {name} < inf", f"{name} = {value!r}")


def _ramp(sU: np.ndarray, sV: np.ndarray) -> np.ndarray:
    """1 where sU >= 0, 0 where sV <= 0, flat smooth blend between."""
    out = np.zeros(sU.shape[0])
    inner = sU >= 0.0
    out[inner] = 1.0
    mid = (~inner) & (sV > 0.0)
    if mid.any():
        t = sV[mid] / (sV[mid] - sU[mid])
        out[mid] = flat_step(t)
    return out


def make_shift_profile(U: Domain, V: Domain) -> Callable[[np.ndarray], np.ndarray]:
    """sigma: +1 on U, -1 outside V, smooth monotone blend between.

    Built from the smooth gauges of U and V; exactly +-1 on the plateaus
    (the blend profile is flat to all orders at its ends), so any gauge
    kinks buried inside U or outside V never reach sigma.

    Aligned intersections get one ramp per member pair, multiplied.  A
    single ramp of the combined (softmin) gauges carries a curvature
    spike along the corner where the active member switches; the product
    form has no corner term, only the sum of the members' own
    curvatures, which is what the absorption budget is priced for.  Any
    other pair is the one-factor case.
    """
    pairs = [(U, V)]
    if (isinstance(U, Intersection) and isinstance(V, Intersection)
            and len(U.members) == len(V.members)):
        pairs = list(zip(U.members, V.members))

    def sigma_many(Z: np.ndarray) -> np.ndarray:
        Z = as_points(Z, U.n)
        prod = np.ones(Z.shape[0])
        for A, B in pairs:
            prod *= _ramp(A.gauge_many(Z), B.gauge_many(Z))
        return 2.0 * prod - 1.0

    return sigma_many


@dataclass
class LocalSmoothResult:
    psi: ScalarField
    correction: ScalarField
    measurements: Dict[str, float]


@contextmanager
def _nonempty(what: str):
    """An empty gate region, where halton_sample raises DomainError, as a
    ParameterError that names it."""
    try:
        yield
    except DomainError as exc:
        raise ParameterError(f"{what} not empty", str(exc)) from exc


def _measure_band(phi: ScalarField, phi_eps: ScalarField, sigma, opens: NestedOpens,
                  params: SmoothingParams,
                  gate_region: Optional[Domain]) -> Dict[str, float]:
    band: Domain = Complement(opens.U, within=opens.V)
    if gate_region is not None:
        band = Intersection((band, gate_region))
    with _nonempty("band V minus U"):
        B = halton_sample(band, BAND_SAMPLES)
    tau_bound = float(np.max(phi_eps.eval_many(B) - phi.eval_many(B)))
    L = levi_form_many(phi_eps, B, params.h)
    m = float(np.min(hermitian_min_eigenvalues(L)))
    Ls = levi_form_many(sigma, B, params.h)
    eigs_lo = hermitian_min_eigenvalues(Ls)
    eigs_hi = -hermitian_min_eigenvalues(-Ls)
    K_sigma = float(np.max(np.maximum(np.abs(eigs_lo), np.abs(eigs_hi))))
    return {"tau_bound": tau_bound, "m": m, "K_sigma": K_sigma}


def _margin_gate(margin: float) -> None:
    if not (margin > 0.0):
        raise ParameterError("margin > 0", f"margin = {margin!r}")


def validate_params(measurements: Dict[str, float],
                    params: SmoothingParams) -> None:
    """Raise ParameterError naming the first violated gate."""
    _margin_gate(measurements["margin"])
    if not (measurements["tau_bound"] < params.delta):
        raise ParameterError(
            "tau_bound < delta",
            f"tau_bound = {measurements['tau_bound']:.6e}, delta = {params.delta:.6e}")
    if not (params.eta <= params.delta / 2.0):
        raise ParameterError(
            "eta <= delta/2",
            f"eta = {params.eta:.6e}, delta = {params.delta:.6e}")
    if not (2.0 * params.delta * measurements["K_sigma"] < measurements["m"] / 2.0):
        raise ParameterError(
            "2*delta*K_sigma < m/2",
            f"delta = {params.delta:.6e}, K_sigma = {measurements['K_sigma']:.6e}, "
            f"m = {measurements['m']:.6e}")
    if not (2.0 * params.delta >= measurements["s_max"] + 2.0 * params.eta):
        raise ParameterError(
            "2*delta >= s_max + 2*eta",
            f"s_max = {measurements['s_max']:.6e}, delta = {params.delta:.6e}, "
            f"eta = {params.eta:.6e}")


def local_smooth(phi: ScalarField, opens: NestedOpens, params: SmoothingParams,
                 gate_region: Optional[Domain] = None) -> LocalSmoothResult:
    """One smoothing step on the triple.

    phi is the field that gets mollified and enters the max; it is passed
    through untouched outside V.  The returned psi evaluates phi's own
    values outside V, so agreement there is exact by construction and the
    interesting content is that the gates make the formula consistent with
    that shortcut across the seam.  The result carries psi, the correction
    psi - phi (zero outside V) and the gate measurements.

    gate_region, when given, intersects the regions the finite-difference
    gate measurements sample.  The band margin m is a stencil quantity and
    chart windows can push the band across points where the entering field
    is merely continuous; the gate window keeps the measurement on the part
    of the band where the stencil is trustworthy.  The construction itself
    is unchanged.
    """
    if phi.n != opens.U.n:
        raise ValueError("field and triple dimensions differ")

    phi_eps = mollify(phi, params.eps)
    sigma = make_shift_profile(opens.U, opens.V)

    # nesting and stencil slack; every measured point needs the mollified
    # field defined a stencil width around it.  V's sample is drawn once
    # for both of its outers; a NaN margin is the minimum
    with _nonempty("U"):
        margins = list(nesting_margin(opens.U, opens.V))
    with _nonempty("V"):
        margins += nesting_margin(opens.V, phi_eps.valid_on.shrink(3.0 * params.h),
                                  opens.W)
    measurements = {"margin": float(np.min(margins))}
    # the band stencils below need that slack, so this gate goes first
    _margin_gate(measurements["margin"])

    measurements.update(_measure_band(phi, phi_eps, sigma, opens, params,
                                      gate_region))

    # smooth-branch dominance over U; automatic (s_max <= 0) for a psh phi,
    # kept as a safety check.  Pointwise sup, no stencil, so the gate
    # window does not apply here.  These are the first points of the
    # margins' draw of U, which has named an empty U
    Upts = halton_sample(opens.U, U_SAMPLES)
    s_max = float(np.max(phi.eval_many(Upts) - phi_eps.eval_many(Upts)))
    measurements["s_max"] = s_max

    validate_params(measurements, params)

    two_delta = 2.0 * params.delta
    V = opens.V

    def _smoothed(base: np.ndarray, Zi: np.ndarray) -> np.ndarray:
        # in V: phi's values base at Zi, maxed with the bent mollified copy
        branch = phi_eps.eval_many(Zi) + two_delta * sigma(Zi)
        return reg_max_many(base, branch, params.eta)

    # psi and chi live on phi.valid_on, so the rows their evaluators see
    # are inside it (the caller contract of ScalarField.eval_many); phi's
    # own check=False evaluations below are of those rows or a subset
    def _psi_eval(Z: np.ndarray) -> np.ndarray:
        Z = as_points(Z, phi.n)
        out = phi.eval_many(Z, check=False)
        inV = V.contains_many(Z)
        if inV.any():
            out[inV] = _smoothed(out[inV], Z[inV])
        return out

    def _chi_eval(Z: np.ndarray) -> np.ndarray:
        Z = as_points(Z, phi.n)
        out = np.zeros(Z.shape[0])
        inV = V.contains_many(Z)
        if inV.any():
            Zi = Z[inV]
            base = phi.eval_many(Zi, check=False)
            out[inV] = _smoothed(base, Zi) - base
        return out

    psi = ScalarField(_psi_eval, phi.valid_on, name=f"smooth({phi.name or 'phi'})")
    chi = ScalarField(_chi_eval, phi.valid_on, name="correction")
    return LocalSmoothResult(psi, chi, measurements)


@dataclass(frozen=True)
class GlueStep:
    """One sweep step: which chart to smooth and on which nested triple.

    The triple lives in that chart's coordinates.  Names follow the
    sweep's role for them: corrections vanish outside closure(opens.V).
    Every step runs with the sweep's params; gate_region is passed to
    local_smooth.
    """

    chart_name: str
    opens: NestedOpens
    gate_region: Optional[Domain] = None


@dataclass
class GlueResult:
    """The cocycle the sweep was given (raw), the glued one, and each
    step's local_smooth result, in order."""

    raw: KahlerCocycle
    cocycle: KahlerCocycle
    steps: List[LocalSmoothResult]


def _overlap_misses(ov: ChartOverlap, V: Domain) -> bool:
    """True when every image of ov's region provably lies outside V.

    The region lies in a polydisk about 0 and V in another; on some axis
    the transform's floor over the first reaches the second's radius, by
    the relative slack PROOF_SLACK.  An untyped transform, or a
    region or V without such a polydisk, is not proved.
    """
    if not isinstance(ov.transform, OverlapTransform):
        return False
    region, support = polydisk_radii(ov.region), polydisk_radii(V)
    if region is None or support is None:
        return False
    return any(f >= r * (1.0 + PROOF_SLACK)
               for f, r in zip(ov.transform.floor(region), support))


def _lift_through_overlaps(cocycle: KahlerCocycle, chart_name: str,
                           chi: ScalarField, V: Domain) -> KahlerCocycle:
    """Add chi (living on chart_name) to every other chart that declares an
    overlap into chart_name; outside the overlap the lift is exactly zero.

    The invariant: chi is the correction of a step whose triple has middle
    member V, and it is exactly 0.0 outside V (local_smooth's correction
    evaluator writes only the rows inside V).  A lift is skipped only when
    _overlap_misses proves, from the transform's image bound, that the
    overlap's region maps outside V's polydisk; it would add 0.0 to every
    row.  Every other lift runs.
    """
    out = cocycle
    for ov in cocycle.overlaps:
        if ov.dst != chart_name or ov.src == chart_name:
            continue
        if _overlap_misses(ov, V):
            continue
        src_chart = out.chart(ov.src)
        old = src_chart.potential

        # the lifted field lives on old.valid_on, so Z is inside it; an
        # overlap's region maps into its dst chart, where chi lives (by
        # declaration; validate_cocycle checks it on its stencil rows)
        def _lift(Z: np.ndarray, _old=old, _ov=ov, _chi=chi) -> np.ndarray:
            vals = _old.eval_many(Z, check=False)
            inside = _ov.region.contains_many(Z)
            vals[inside] += _chi.eval_many(_ov.map_many(Z[inside]), check=False)
            return vals

        out = out.replace_potential(
            ov.src, ScalarField(_lift, old.valid_on, name=old.name))
    return out


def global_glue(cocycle: KahlerCocycle, steps: Sequence[GlueStep],
                params: SmoothingParams) -> GlueResult:
    """Sweep the local step across charts, lifting corrections as it goes.

    Step k smooths the accumulated field of its chart, mollifying that
    field itself; since corrections of earlier steps keep it psh, the
    mollification dominates it and the s_max gate holds automatically.
    Every step runs with params.  A single step reproduces local_smooth
    exactly.
    """
    current = cocycle
    results: List[LocalSmoothResult] = []
    for k, step in enumerate(steps, start=1):
        chart = current.chart(step.chart_name)
        try:
            res = local_smooth(chart.potential, step.opens, params,
                               gate_region=step.gate_region)
        except ParameterError as exc:
            raise ParameterError(exc.condition,
                                 f"glue step {k} ({step.chart_name}): {exc.detail}")

        current = current.replace_potential(step.chart_name, res.psi)
        current = _lift_through_overlaps(current, step.chart_name,
                                         res.correction, step.opens.V)
        results.append(res)
    return GlueResult(cocycle, current, results)


def smooth_pushforward(cover: Sequence[ChartPair], upstairs: KahlerCocycle,
                       downstairs_overlaps: Sequence,
                       steps: Sequence[GlueStep], params: SmoothingParams,
                       X1: Optional[Domain] = None,
                       X2: Optional[Domain] = None) -> GlueResult:
    """Push the upstairs potentials down, then run the gluing sweep.

    Each chart pair of cover contributes one downstairs chart whose
    potential is the pushforward of the assigned upstairs potential.
    """
    # X1 and X2 are accepted and unread: bench/worker.py still passes them
    from .covers import pushforward as push

    charts = []
    for pair in cover:
        up = upstairs.chart(pair.upstairs_name)
        phi = push(pair.cover, up.potential)
        charts.append(CocycleChart(pair.downstairs_name, phi))
    raw = KahlerCocycle(tuple(charts), tuple(downstairs_overlaps))
    return global_glue(raw, steps, params)
