"""The one-step smoother, its parameter gates, and the glue sweep."""

import numpy as np
import pytest

from coversmooth import geometry, psh, smoothing
from coversmooth.cocycle import CocycleChart, KahlerCocycle
from coversmooth.errors import ParameterError
from coversmooth.geometry import (
    Annulus,
    Complement,
    Disk,
    Polydisk,
    ScalarField,
    halton_sample,
    sample_grid,
)
from coversmooth.psh import min_levi_eigenvalue
from coversmooth.scenarios import build_scenario
from coversmooth.smoothing import (
    GlueStep,
    NestedOpens,
    SmoothingParams,
    global_glue,
    U_SAMPLES,
    local_smooth,
)

# a kinked psh toy: max of two quadratics, kink circle at |z|^2 = 0.1
TOY_DOMAIN = Disk(0.0, 0.8)
TOY_OPENS = NestedOpens(Disk(0.0, 0.36), Disk(0.0, 0.50), Disk(0.0, 0.60))
TOY_PARAMS = SmoothingParams(eps=0.04, delta=8e-4, eta=4e-4, h=2e-3)


def _toy_field():
    def kinked(Z):
        r2 = np.abs(Z[:, 0]) ** 2
        return np.maximum(r2, 1.2 * r2 - 0.02)

    return ScalarField(kinked, TOY_DOMAIN, name="kinked")


def test_smoothing_params_defaults():
    assert psh.MOLL_ORDER == {1: 8, 2: 6}
    for dom, nodes in ((Disk(0.0, 1.0), 40), (Polydisk((0, 0), (1.0, 1.0)), 80)):
        f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
        assert psh.mollify(f, 0.1).meta["kernel_nodes"] == nodes
    assert psh.REGMAX_ORDER == 16
    assert smoothing.BAND_SAMPLES == 400
    assert smoothing.U_SAMPLES == 256
    assert geometry.HALTON_START == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["eps", "delta", "eta", "h"])
def test_a_setting_that_is_not_finite_and_positive_is_a_parameter_error(name, value):
    kw = {"eps": 0.1, "delta": 1e-3, "eta": 5e-4, "h": 1e-2, name: value}
    with pytest.raises(ParameterError, match=f"0 < {name} < inf"):
        SmoothingParams(**kw)


GOOD_MEASUREMENTS = {
    "margin": 0.1,
    "tau_bound": 1e-4,
    "m": 1.0,
    "K_sigma": 10.0,
    "s_max": -1e-4,
}
GOOD_PARAMS = SmoothingParams(eps=0.05, delta=1e-3, eta=5e-4, h=1e-2)


def _expect_gate(measurements, params, condition):
    from coversmooth.smoothing import validate_params

    with pytest.raises(ParameterError) as err:
        validate_params(measurements, params)
    assert err.value.condition == condition


def test_validate_params_accepts_a_consistent_set():
    from coversmooth.smoothing import validate_params

    validate_params(dict(GOOD_MEASUREMENTS), GOOD_PARAMS)


def test_gate_nesting_margin():
    meas = dict(GOOD_MEASUREMENTS, margin=-0.01)
    _expect_gate(meas, GOOD_PARAMS, "margin > 0")


def test_gate_mollifier_overshoot():
    meas = dict(GOOD_MEASUREMENTS, tau_bound=5e-3)
    _expect_gate(meas, GOOD_PARAMS, "tau_bound < delta")


def test_gate_eta_versus_delta():
    params = SmoothingParams(eps=0.05, delta=1e-3, eta=9e-4, h=1e-2)
    _expect_gate(dict(GOOD_MEASUREMENTS), params, "eta <= delta/2")


def test_gate_shift_curvature_budget():
    meas = dict(GOOD_MEASUREMENTS, K_sigma=1e4)
    _expect_gate(meas, GOOD_PARAMS, "2*delta*K_sigma < m/2")


def test_gate_smooth_branch_dominance():
    meas = dict(GOOD_MEASUREMENTS, s_max=0.5)
    _expect_gate(meas, GOOD_PARAMS, "2*delta >= s_max + 2*eta")


def test_local_smooth_measurements_pass_the_gates():
    res = local_smooth(_toy_field(), TOY_OPENS, TOY_PARAMS)
    meas = res.measurements
    assert set(meas) >= {"margin", "tau_bound", "m", "K_sigma", "s_max"}
    assert meas["margin"] > 0
    assert meas["tau_bound"] < TOY_PARAMS.delta
    assert meas["s_max"] <= 0  # mollifying a psh field only pushes up


def test_local_smooth_is_verbatim_outside_V():
    """Outside the middle open the smoother evaluates the input, bit for bit."""
    phi = _toy_field()
    res = local_smooth(phi, TOY_OPENS, TOY_PARAMS)
    pts = halton_sample(Annulus(0.0, 0.52, 0.78), 500)
    assert np.array_equal(res.psi.eval_many(pts), phi.eval_many(pts))
    assert np.array_equal(res.correction.eval_many(pts), np.zeros(len(pts)))


def test_local_smooth_lifts_strictly_over_the_kink():
    phi = _toy_field()
    res = local_smooth(phi, TOY_OPENS, TOY_PARAMS)
    ring = halton_sample(Annulus(0.0, 0.31, 0.32), 200)
    lift = res.psi.eval_many(ring) - phi.eval_many(ring)
    assert np.min(lift) > 1e-3


def test_local_smooth_output_is_psh_on_the_inner_open():
    res = local_smooth(_toy_field(), TOY_OPENS, TOY_PARAMS)
    for h in (2e-3, 1e-3):
        g = sample_grid(Disk(0.0, 0.34), 2.0 * h)
        rep = min_levi_eigenvalue(res.psi, g, h)
        assert rep.min_eigenvalue > 0.0


def test_unnested_triple_fails_the_margin_gate():
    # W sits inside V, so the triple is not an exhausting chain
    opens = NestedOpens(Disk(0.0, 0.36), Disk(0.0, 0.50), Disk(0.0, 0.48))
    with pytest.raises(ParameterError) as err:
        local_smooth(_toy_field(), opens, TOY_PARAMS)
    assert err.value.condition == "margin > 0"


_EMPTY = {
    # U is the disk of radius 0.36 less the disk of radius 0.4
    "U": NestedOpens(Complement(Disk(0.0, 0.4), within=Disk(0.0, 0.36)),
                     Disk(0.0, 0.50), Disk(0.0, 0.60)),
    "V": NestedOpens(Disk(0.0, 0.36), Complement(Disk(0.0, 0.6), within=Disk(0.0, 0.5)),
                     Disk(0.0, 0.60)),
    "band V minus U": NestedOpens(Disk(0.0, 0.50), Disk(0.0, 0.50), Disk(0.0, 0.60)),
}


@pytest.mark.parametrize("what", sorted(_EMPTY))
def test_an_empty_gate_region_is_a_parameter_error_that_names_its_step(what):
    cocycle = KahlerCocycle((CocycleChart("z", _toy_field()),), ())
    with pytest.raises(ParameterError) as err:
        global_glue(cocycle, (GlueStep("z", _EMPTY[what]),), TOY_PARAMS)
    assert err.value.condition == f"{what} not empty"
    assert err.value.detail.startswith("glue step 1 (z): could not draw")


def test_eta_above_half_delta_fails_before_any_gluing():
    params = SmoothingParams(eps=0.04, delta=8e-4, eta=6e-4, h=2e-3)
    with pytest.raises(ParameterError) as err:
        local_smooth(_toy_field(), TOY_OPENS, params)
    assert err.value.condition == "eta <= delta/2"


def test_single_step_glue_coincides_with_local_smooth_bitwise():
    phi = _toy_field()
    direct = local_smooth(phi, TOY_OPENS, TOY_PARAMS)
    cocycle = KahlerCocycle((CocycleChart("c", phi),), ())
    glued = global_glue(
        cocycle,
        [GlueStep("c", TOY_OPENS)],
        TOY_PARAMS,
    )
    pts = halton_sample(Disk(0.0, 0.78), 800)
    assert np.array_equal(
        glued.cocycle.chart("c").potential.eval_many(pts),
        direct.psi.eval_many(pts),
    )
    assert len(glued.steps) == 1
    assert glued.steps[0].measurements == direct.measurements


def _one_outer_margin(inner, outer):
    # nesting_margin before it took several outers: one draw per outer
    pts = halton_sample(inner, 4096)
    return float(np.min(outer.boundary_distance_many(pts)))


def _spy_halton_draws(monkeypatch):
    # every draw local_smooth makes, through either module's binding
    draws = []
    for mod in (geometry, smoothing):
        def spy(domain, count, _real=mod.halton_sample):
            draws.append((domain, count))
            return _real(domain, count)

        monkeypatch.setattr(mod, "halton_sample", spy)
    return draws


def test_local_smooth_draws_V_once(monkeypatch):
    draws = _spy_halton_draws(monkeypatch)
    local_smooth(_toy_field(), TOY_OPENS, TOY_PARAMS)
    assert [c for d, c in draws if d is TOY_OPENS.V] == [4096]
    assert [c for d, c in draws if d is TOY_OPENS.U] == [4096, U_SAMPLES]


@pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4"])
def test_every_shipped_step_keeps_its_three_one_outer_margins(sid, monkeypatch):
    s = build_scenario(sid)
    calls = []

    def spy(inner, *outers, _real=smoothing.nesting_margin):
        calls.append((inner, outers, _real(inner, *outers)))
        return calls[-1][2]

    monkeypatch.setattr(smoothing, "nesting_margin", spy)
    draws = _spy_halton_draws(monkeypatch)
    run = smoothing.smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                       s.steps, s.params)
    monkeypatch.undo()
    assert len(calls) == 2 * len(s.steps) == 2 * len(run.steps)
    for k, (step, res) in enumerate(zip(s.steps, run.steps)):
        (u, (v,), first), (v2, (shrunk, w), rest) = calls[2 * k:2 * k + 2]
        assert u is step.opens.U and v is v2 is step.opens.V and w is step.opens.W
        want = [_one_outer_margin(u, v), _one_outer_margin(v, shrunk),
                _one_outer_margin(v, w)]
        assert np.array([*first, *rest]).tobytes() == np.array(want).tobytes()
        assert res.measurements["margin"] == min(want)
        assert sum(d is step.opens.V for d, _ in draws) == 1


@pytest.mark.parametrize("nan_at", [0, 1, 2])
def test_a_nan_margin_fails_the_margin_gate_at_any_position(monkeypatch, nan_at):
    # the margins [U in V, V in shrunk, V in W], one of them NaN
    margins = []

    def nan_one(inner, *outers, _real=smoothing.nesting_margin):
        out = list(_real(inner, *outers))
        for j in range(len(out)):
            if len(margins) + j == nan_at:
                out[j] = np.nan
        margins.extend(out)
        return tuple(out)

    monkeypatch.setattr(smoothing, "nesting_margin", nan_one)
    with pytest.raises(ParameterError, match="margin > 0") as err:
        local_smooth(_toy_field(), TOY_OPENS, TOY_PARAMS)
    assert err.value.condition == "margin > 0"
    assert err.value.detail == "margin = nan"
    assert len(margins) == 3 and np.isnan(margins[nan_at])


def test_nesting_margin_needs_an_outer_domain():
    with pytest.raises(ValueError, match="at least one outer"):
        geometry.nesting_margin(Disk(0.0, 0.5))
    assert geometry.nesting_margin(Disk(0.0, 0.5), Disk(0.0, 0.6), Disk(0.0, 0.4))[1] < 0.0
