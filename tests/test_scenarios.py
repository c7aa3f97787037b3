"""Scenario construction, the check specs, the agreement check, and report
shape."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coversmooth.cocycle import ChartOverlap, CocycleChart, KahlerCocycle
from coversmooth import covers, psh, smoothing
from coversmooth.covers import SymmetricSum, pushforward
from coversmooth.errors import CoverageError, DomainError, ParameterError, ScenarioError
from coversmooth.geometry import (
    Annulus,
    Complement,
    Disk,
    Intersection,
    LevelRegion,
    Polydisk,
    ScalarField,
    discrete_laplacian_many,
    halton_sample,
    lattice_field,
    mass_integral,
    sample_grid,
)
from coversmooth.scenarios import (
    OVERRIDE_KEYS,
    SCENARIO_IDS,
    C2Zone,
    DiskMass,
    FieldDump,
    Lattice,
    OverlapDevChange,
    SupGap,
    _abs_sq_cell,
    _abs_sq_p,
    _abs_sq_s,
    build_scenario,
    check_passes,
    run_scenario,
    scenario_defaults,
)
from coversmooth.smoothing import (
    GlueResult,
    GlueStep,
    NestedOpens,
    SmoothingParams,
    global_glue,
    local_smooth,
    smooth_pushforward,
)

S1_DEFAULTS = {
    "h": 0.01,
    "eps": 0.035,
    "delta": 5e-4,
    "eta": 1e-4,
    "n_radius": 0.6,
    "nprime_radius": 0.4,
}


def test_shipped_scenario_ids():
    assert SCENARIO_IDS == ("S1", "S2", "S3", "S4")
    for sid in SCENARIO_IDS:
        assert sorted(scenario_defaults(sid)) == sorted(OVERRIDE_KEYS)


def test_scenario_defaults_frozen_for_s1():
    assert scenario_defaults("S1") == S1_DEFAULTS


def test_scenario_defaults_returns_a_copy():
    d = scenario_defaults("S1")
    d["h"] = 99.0
    assert scenario_defaults("S1") == S1_DEFAULTS


@pytest.mark.parametrize("sid", ["S1", "S4"])
def test_a_disk_triple_gauge_is_its_smooth_defining_function(sid):
    # one axis: the softmin shortcut returns the column, with no exp or log
    (step,) = build_scenario(sid).steps
    Z = halton_sample(Disk(0.0, 1.0), 1000)
    for disk in (step.opens.U, step.opens.V, step.opens.W):
        (c,), (R,) = disk.center_values, disk.radii
        want = (R ** 2 - np.abs(Z[:, 0] - c) ** 2) / (2.0 * R)
        assert disk.gauge_many(Z).tobytes() == want.tobytes()


def test_build_s1_at_defaults():
    s = build_scenario("S1")
    assert s.scenario_id == "S1"
    assert s.cover[0].cover.degree == 2
    assert s.config["nprime_radius"] == 0.4
    W = s.steps[0].opens.W
    assert isinstance(W, Polydisk)
    assert W.radii == (0.59,)
    assert len(s.steps) == 1
    assert s.steps[0].chart_name == "w"


def test_unknown_scenario_id():
    with pytest.raises(ScenarioError, match="unknown scenario id"):
        build_scenario("S9")


def test_unknown_override_key_names_the_allowed_set():
    with pytest.raises(ScenarioError, match="allowed"):
        build_scenario("S1", {"bogus": 1.0})


def test_non_finite_override_rejected():
    with pytest.raises(ScenarioError):
        build_scenario("S1", {"eps": float("nan")})
    with pytest.raises(ScenarioError):
        build_scenario("S1", {"h": -0.01})


def test_broken_nesting_is_rejected():
    with pytest.raises(ScenarioError, match="N' cc N"):
        build_scenario("S1", {"nprime_radius": 0.8})


def test_shrinking_n_drags_nprime_along():
    """Overriding only the outer radius keeps the nesting feasible."""
    s = build_scenario("S2", {"n_radius": 0.5})
    assert s.config["nprime_radius"] == pytest.approx(0.5 * 0.5 / 1.15)
    # the outer triple member's level follows the override
    level = s.steps[0].opens.W.members[1]
    assert level.threshold == pytest.approx(0.5)


@pytest.mark.parametrize("sid, overrides, message", [
    ("S1", {"nprime_radius": 0.55}, "leaves no room"),
    ("S4", {"nprime_radius": 0.61}, "leaves no room"),
    ("S1", {"n_radius": 2.4}, "pushes the outer triple"),
    ("S4", {"n_radius": 0.7}, "pushes the outer triple"),
    ("S2", {"nprime_radius": 0.6}, "reaches the inner triple level"),
    ("S3", {"nprime_radius": 0.5}, "reaches the inner triple level"),
])
def test_infeasible_triples_are_rejected_at_build(sid, overrides, message):
    with pytest.raises(ScenarioError, match=message):
        build_scenario(sid, overrides)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_any_radius_override_builds_or_is_one_scenario_error(sid):
    # build only: a bad pair must be a ScenarioError, which the CLI turns
    # into one config error line, and never a bare ValueError
    for n in (0.01, 0.06, 0.1, 0.4, 0.8, 1.2, 2.5):
        for npr in (0.005, 0.01, 0.05, 0.2, 0.6, 1.1):
            try:
                build_scenario(sid, {"n_radius": n, "nprime_radius": npr})
            except ScenarioError:
                pass


def test_explicit_nprime_override_is_taken_literally():
    s = build_scenario("S1", {"n_radius": 0.5, "nprime_radius": 0.3})
    assert s.config["nprime_radius"] == 0.3


def _field(fn, dom, name):
    return ScalarField(fn, dom, name=name)


def _upstairs_pairs():
    for sid in ("S2", "S3"):
        s = build_scenario(sid)
        for pair in s.cover:
            yield sid, pair, s.upstairs.chart(pair.upstairs_name).potential


def test_s2_and_s3_upstairs_potentials_are_symmetric_sums():
    # the closed-form pushforward is taken for this type only; a builder
    # that falls back to a plain field moves last bits and loses it
    got = {(sid, pair.upstairs_name): type(f).__name__
           for sid, pair, f in _upstairs_pairs()}
    assert got == {("S2", "zz"): "SymmetricSum", ("S3", "zz"): "SymmetricSum",
                   ("S3", "tt"): "SymmetricSum"}


def test_symmetric_pushforward_matches_the_plain_fiber_sum_to_1e_minus_14():
    # the closed form in (s, p) moves the last bits of the root-solved sum
    for sid, pair, f in _upstairs_pairs():
        assert isinstance(f, SymmetricSum)
        plain = ScalarField(f.evaluator, f.valid_on, name=f.name)
        B = halton_sample(pair.cover.downstairs, 2000)
        got = pushforward(pair.cover, f).eval_many(B)
        want = pushforward(pair.cover, plain).eval_many(B)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0)), \
            (sid, pair.downstairs_name)


def test_s2_and_s3_raw_pushforwards_solve_no_roots(monkeypatch):
    # the closed forms replace the root solve wherever containment is
    # proved; an unproved chart still solves
    solved = []
    inner = covers._roots_batched

    def spy(E):
        solved.append(E.shape[0])
        return inner(E)

    for sid, pair, f in _upstairs_pairs():
        pf = pushforward(pair.cover, f)
        B = halton_sample(pair.cover.downstairs, 500)
        monkeypatch.setattr(covers, "_roots_batched", spy)
        pf.eval_many(B)
        monkeypatch.undo()
        assert solved == [], (sid, pair.downstairs_name)

    f = SymmetricSum(lambda z: np.abs(z) ** 2, 3.1, (_abs_sq_s, _abs_sq_p), _abs_sq_cell)
    cover = covers.VietaCover(Polydisk((0, 0), (2.5, 2.0)))
    assert not covers.fibers_inside(cover, f.valid_on)
    pf = pushforward(cover, f)
    B = halton_sample(cover.downstairs, 64)
    monkeypatch.setattr(covers, "_roots_batched", spy)
    pf.eval_many(B)
    assert solved == [64]


def _sup_gap(psi, phi, region, samples=2000):
    """The SupGap check of psi against phi on region, as run on a pipeline
    result whose raw chart "w" carries phi and whose glued one carries psi."""
    raw = KahlerCocycle((CocycleChart("w", phi),))
    glued = KahlerCocycle((CocycleChart("w", psi),))
    spec = SupGap("w", region, samples=samples)
    ((stage, check),) = spec.run(None, GlueResult(raw, glued, []), None)
    assert stage == check["name"]
    return check


def test_sup_gap_spec_passes_on_identical_fields():
    dom = Disk(0.0, 1.0)
    phi = _field(lambda Z: np.abs(Z[:, 0]) ** 2, dom, "phi")
    out = _sup_gap(phi, phi, Annulus(0.0, 0.6, 0.9))
    assert out["pass"] is True
    assert out["value"] == 0.0
    assert out["tol"] == 0.0
    assert out["name"] == "agreement_outside_N_sup"


def test_sup_gap_spec_flags_a_one_ulp_scale_defect():
    # an injected 1e-9 offset must fail: the contract is exact equality
    dom = Disk(0.0, 1.0)
    phi = _field(lambda Z: np.abs(Z[:, 0]) ** 2, dom, "phi")
    psi = _field(lambda Z: np.abs(Z[:, 0]) ** 2 + 1e-9, dom, "psi")
    out = _sup_gap(psi, phi, Annulus(0.0, 0.6, 0.9))
    assert out["pass"] is False
    assert out["value"] == pytest.approx(1e-9, rel=1e-12)


def test_sup_gap_spec_measures_the_region_less_the_support():
    dom = Disk(0.0, 1.0)
    phi = _field(lambda Z: np.abs(Z[:, 0]) ** 2, dom, "phi")
    psi = _field(lambda Z: np.abs(Z[:, 0]) ** 2 + 1e-9, dom, "psi")
    ring = Annulus(0.0, 0.6, 0.9)
    # a support that meets the region: its part outside is measured, and fails
    out = _sup_gap(psi, phi, Complement(Disk(0.0, 0.7), within=ring))
    assert set(out) == {"name", "value", "tol", "pass", "kind"}
    assert out["pass"] is False
    assert out["value"] == pytest.approx(1e-9, rel=1e-12)
    # a disjoint support removes no sample point
    assert _sup_gap(psi, phi, Complement(Disk(0.0, 0.3), within=ring)) == _sup_gap(
        psi, phi, ring)
    # a region wholly inside the support has nothing to measure
    with pytest.raises(DomainError):
        _sup_gap(psi, phi, Complement(Disk(0.0, 0.95), within=ring), samples=20)


def test_check_passes_semantics():
    assert check_passes({"name": "a", "value": 0.5, "tol": 1.0, "kind": "le", "pass": True})
    assert not check_passes({"name": "a", "value": 2.0, "tol": 1.0, "kind": "le", "pass": True})
    assert check_passes({"name": "a", "value": 2.0, "tol": 1.0, "kind": "ge", "pass": True})
    assert not check_passes({"name": "a", "value": 0.5, "tol": 1.0, "kind": "ge", "pass": True})
    na = {"name": "a", "value": 0.0, "tol": 0.0, "kind": "le", "pass": True,
          "status": "not-applicable"}
    assert check_passes(na)
    err = {"name": "pipeline", "value": 1.0, "tol": 0.0, "kind": "le", "pass": False,
           "error": "ParameterError: eta <= delta/2", "error_type": "ParameterError"}
    assert not check_passes(err)


def test_report_shape_and_environment(scenario_runs):
    for sid, (report, _) in scenario_runs.items():
        assert set(report) == {"scenario", "params", "checks", "pass", "env"}
        assert report["scenario"] == sid
        assert set(report["params"]) == set(S1_DEFAULTS)
        for check in report["checks"]:
            # exactly these keys: a skip or status note would mark a check
            # that passed without its value deciding it
            assert set(check) == {"name", "value", "tol", "pass", "kind"}, (
                sid, check["name"])
            assert isinstance(check["pass"], bool)
        env = report["env"]
        assert env["halton_start"] == 1
        assert env["agreement_samples"] == 10000
        assert "numpy" in env and "python" in env


def test_every_shipped_scenario_passes_at_defaults(scenario_runs):
    for sid, (report, _) in scenario_runs.items():
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert report["pass"] is True, (sid, failing)


# The check values of the S1-S4 reports at defaults.  A change that moves one
# re-freezes this file from `python -m coversmooth run --scenario S<k>` and
# names the move.
DEFAULT_CHECK_VALUES = Path(__file__).parent / "default_check_values.json"


def test_default_check_values_match_the_frozen_file(scenario_runs):
    frozen = json.loads(DEFAULT_CHECK_VALUES.read_text())
    assert sorted(frozen) == sorted(scenario_runs)
    for sid, want in frozen.items():
        got = {c["name"]: c["value"] for c in scenario_runs[sid][0]["checks"]}
        assert list(got) == list(want), sid
        for name, v in want.items():
            if v == 0.0:
                assert got[name] == 0.0, (sid, name, got[name])
            else:
                # room for a one-ulp libm difference in noise-level values
                assert abs(got[name] - v) <= 1e-9 * max(abs(v), 1.0), \
                    (sid, name, got[name], v)


def test_s1_disk_mass_oracle_follows_the_disk_radius():
    # n_radius 1.2 widens the mass disk to |w| < 1.23, where dd^c(2|w|) has
    # mass 4 pi * 1.23 rather than the unit disk's 4 pi
    s = build_scenario("S1", {"n_radius": 1.2})
    spec = next(spec for spec in s.battery if isinstance(spec, DiskMass))
    run = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                             s.steps, s.params)
    checks = {c["name"]: c for _, c in spec.run(s, run, None)}
    assert checks["mass_raw_rel_err"]["value"] < 1e-3
    assert checks["mass_raw_rel_err"]["pass"]
    assert checks["mass_smoothed_drift"]["pass"]


def _mass_spec(sid):
    s, run = _glued(sid)
    return s, run, next(spec for spec in s.battery if isinstance(spec, DiskMass))


@pytest.mark.parametrize("sid", ["S1", "S2", "S4"])
def test_the_mass_flux_is_the_area_sum_of_the_laplacian(sid):
    # the oracle is the area sum the flux telescopes: every node's 5-point
    # Laplacian on the same lattice, times h^2
    _, run, spec = _mass_spec(sid)
    h = spec.spacing
    grid = sample_grid(spec.disk, h)
    for f in spec.fields(run):
        area = float(np.sum(discrete_laplacian_many(
            lattice_field(f, grid, h), grid.nodes, h)) * h * h)
        flux = mass_integral(f, spec.disk, h)
        assert abs(flux - area) <= 1e-12 * abs(area), (sid, flux, area)


def _bumped(f: ScalarField, p: complex) -> ScalarField:
    """f plus a smooth bump of height 1e-6 and radius 0.05 about p."""
    def ev(Z):
        t = 1.0 - np.abs(Z[:, 0] - p) ** 2 / 0.05 ** 2
        bump = np.zeros_like(t)
        bump[t > 0] = 1e-6 * np.exp(-1.0 / t[t > 0])
        return f.eval_many(Z) + bump
    return ScalarField(ev, f.valid_on)


@pytest.mark.parametrize("depth, moves", [(0.025, True), (0.1, False)],
                         ids=["reaches_the_edge_ring", "inside"])
def test_a_correction_moves_the_disk_mass_only_if_it_reaches_the_edge(
        monkeypatch, depth, moves):
    # a bump centred depth inside S1's mass circle; at depth 0.1 its support
    # ends 0.05 inside, clear of the edge nodes within 2h of the circle
    s, run, spec = _mass_spec("S1")
    raw, psi = spec.fields(run)
    c, R = spec.disk.center_values[0], spec.disk.radii[0]
    monkeypatch.setattr(DiskMass, "fields",
                        lambda self, res: (raw, _bumped(psi, c + R - depth)))
    drift = {c["name"]: c for _, c in spec.run(s, run, None)}["mass_smoothed_drift"]
    if moves:
        assert drift["value"] > 1e-9 and not drift["pass"]
    else:
        assert drift["value"] == 0.0 and drift["pass"]


def test_the_s1_disk_mass_holds_a_small_working_set():
    # the area sum read 196,293 nodes x 5 stencil rows and peaked near 97 MiB
    s, run, spec = _mass_spec("S1")
    tracemalloc.start()
    try:
        checks = list(spec.run(s, run, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for _, c in checks)
    assert peak < 32 * 2 ** 20


_LIFT = smoothing._lift_through_overlaps


def _lift_scaled(k):
    def lift(cocycle, chart_name, chi, V):
        scaled = ScalarField(lambda Z: k * chi.eval_many(Z, check=False), chi.valid_on)
        return _LIFT(cocycle, chart_name, scaled, V)
    return lift


_MUTANTS = pytest.mark.parametrize(
    "mutant", [lambda cocycle, chart_name, chi, V: cocycle, _lift_scaled(-1.0),
               _lift_scaled(2.0)],
    ids=["dropped", "negated", "doubled"])


@_MUTANTS
def test_a_broken_gluing_lift_fails_the_s4_overlap_check(monkeypatch, mutant):
    # S4 lifts its near-chart correction into the far chart; without that
    # lift (or with its sign flipped, or doubled) the glued near->far
    # difference is no longer pluriharmonic, and the report carries a
    # failing pipeline check
    s = build_scenario("S4")
    spec = next(spec for spec in s.battery if isinstance(spec, OverlapDevChange))

    def glue():
        return smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                  s.steps, s.params)

    assert [c["value"] for _, c in spec.run(s, glue(), None)] == [0.0, 0.0]
    monkeypatch.setattr(smoothing, "_lift_through_overlaps", mutant)
    with pytest.raises(CoverageError, match="near->far"):
        list(spec.run(s, glue(), None))
    last = run_scenario(s)["checks"][-1]
    assert (last["name"], last["pass"], last["error_type"]) == \
        ("pipeline", False, "CoverageError")


def test_a_mollifier_at_a_twentieth_of_eps_fails_the_s1_smoothed_c2_check(monkeypatch):
    # the gates still pass, but the smoothing no longer bounds the Laplacian
    # under halving h: only c2_ratio_smoothed sees it
    s = build_scenario("S1")
    spec = next(spec for spec in s.battery if isinstance(spec, C2Zone))

    def smoothed_ratio():
        run = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                 s.steps, s.params)
        return {c["name"]: c for _, c in spec.run(s, run, None)}["c2_ratio_smoothed"]

    assert smoothed_ratio()["pass"]
    mollify = psh.mollify
    monkeypatch.setattr(smoothing, "mollify", lambda f, eps: mollify(f, eps / 20.0))
    assert not smoothed_ratio()["pass"]


def test_a_mollifier_kernel_of_mass_1p001_fails_the_s1_gates(monkeypatch):
    # a kernel that does not sum to one lifts the mollified field by about
    # 1e-3 of it, past delta on S1's band
    kernel = psh.mollifier_kernel

    def heavy(two_n, order):
        k = kernel(two_n, order)
        return psh.MollifierKernel(k.offsets, k.weights * 1.001, k.m2_unit)

    monkeypatch.setattr(psh, "mollifier_kernel", heavy)
    s = build_scenario("S1")
    with pytest.raises(ParameterError, match="tau_bound < delta"):
        smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                           s.steps, s.params)


def _phi_near_expression(Z):
    # S4's near potential as one expression: max(L, L/2 + log(5/4)/2), with
    # L = log1p(x*x + y*y), the radial field's |z|^2
    a = 0.5
    z = Z[:, 0]
    L = np.log1p(z.real * z.real + z.imag * z.imag)
    return np.maximum(L, (1.0 - a) * L + a * np.log(1.0 + 0.5 ** 2))


def test_s4s_near_potential_keeps_the_bits_of_its_expression():
    phi_near = build_scenario("S4").upstairs.chart("near").potential.evaluator
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 2.0 * np.pi, 2000)
    Z = np.concatenate([
        0.5 * np.exp(1j * t),                            # the kink circle
        [0.5, -0.5, 0.5j, -0.5j, 0j, complex(-0.0, -0.0)],
        rng.uniform(0.0, 0.8, 20_000) * np.exp(1j * rng.uniform(0.0, 7.0, 20_000)),
    ])[:, None]
    assert phi_near(Z).tobytes() == _phi_near_expression(Z).tobytes()


# Two steps on S4's inversion atlas w = 1/z: the near chart on S4's triple,
# then a far-chart triple of annuli inside |w| in (1/0.62, 1/0.47), where the
# near correction lifted to the far chart is nonzero.  The far triple has
# thin bands, hence a small delta, and a small eps keeps the near step's
# tau_bound below it.
_TWO_STEP_PARAMS = SmoothingParams(eps=3e-3, delta=4e-6, eta=1.5e-6, h=2.5e-3)
_FAR_STEP = GlueStep("far", NestedOpens(
    Annulus(0.0, 1.74, 2.01), Annulus(0.0, 1.66, 2.11), Annulus(0.0, 1.63, 2.12)))


def _check_two_step_fixture():
    s = build_scenario("S4")
    near, params = s.steps[0], _TWO_STEP_PARAMS
    one = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                             (near,), params)
    raw = one.raw.chart("far").potential
    lifted = one.cocycle.chart("far").potential
    chi = one.steps[0].correction
    P = halton_sample(_FAR_STEP.opens.V, 400)
    lift = chi.eval_many(1.0 / P)
    assert np.max(lift) > params.delta
    assert np.array_equal(lifted.eval_many(P), raw.eval_many(P) + lift), "lift"

    two = global_glue(one.raw, (near, _FAR_STEP), params)
    got = two.cocycle.chart("far").potential.eval_many(P)
    # step 2 mollifies the far field that carries step 1's correction ...
    want = local_smooth(lifted, _FAR_STEP.opens, params).psi.eval_many(P)
    assert np.array_equal(got, want)
    # ... which the raw far field does not
    from_raw = local_smooth(raw, _FAR_STEP.opens, params).psi.eval_many(P)
    assert np.max(np.abs(got - from_raw)) > params.delta


def test_a_second_step_smooths_the_field_that_carries_the_first_correction():
    _check_two_step_fixture()


@_MUTANTS
def test_a_broken_gluing_lift_fails_the_two_step_fixture(monkeypatch, mutant):
    monkeypatch.setattr(smoothing, "_lift_through_overlaps", mutant)
    with pytest.raises(AssertionError, match="lift"):
        _check_two_step_fixture()


def _glued(sid):
    s = build_scenario(sid)
    return s, smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                 s.steps, s.params)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_every_glued_chart_gives_a_point_the_same_bits_in_any_batch(sid):
    # one call against blocks of 1, 7 and 333 rows and a permuted order;
    # the message names every chart and batching that differs
    _, run = _glued(sid)
    perm = np.random.default_rng(0).permutation(3000)
    differ = []
    for chart in run.cocycle.charts:
        f = chart.potential
        Z = halton_sample(f.valid_on, 3000)
        whole = f.eval_many(Z).tobytes()
        for b in (1, 7, 333):
            got = np.concatenate([f.eval_many(Z[lo:lo + b]) for lo in range(0, 3000, b)])
            if got.tobytes() != whole:
                differ.append((chart.name, b))
        got = np.empty(3000)
        got[perm] = f.eval_many(Z[perm])
        if got.tobytes() != whole:
            differ.append((chart.name, "permuted"))
    assert differ == []


def test_only_s3s_d3_to_d1_lift_is_proved_to_add_nothing():
    s3, s4 = build_scenario("S3"), build_scenario("S4")
    V1, V3 = (step.opens.V for step in s3.steps)
    ov13, ov31 = s3.downstairs_overlaps
    # D3's region lies in |t2| < 0.99, which the swap sends to |p| > 1/0.99;
    # step 1's V lies in |p| < 0.70
    assert smoothing._overlap_misses(ov31, V1)
    assert not smoothing._overlap_misses(ov13, V3)
    far_near = next(ov for ov in s4.downstairs_overlaps if ov.dst == "near")
    assert not smoothing._overlap_misses(far_near, s4.steps[0].opens.V)
    # what the proof cannot decide keeps the lift: an untyped transform, a
    # V box off 0, a V with no box
    untyped = ChartOverlap(ov31.src, ov31.dst, ov31.region,
                           lambda Z: ov31.transform(Z))
    off_center = Intersection((Polydisk((0.0, 0.1), (1.00, 0.70)),) + V1.members[1:])
    level_only = LevelRegion(lambda Z: np.abs(Z[:, 1]), 0.70, 2)
    for ov, V in ((untyped, V1), (ov31, off_center), (ov31, level_only)):
        assert not smoothing._overlap_misses(ov, V)


def test_s3_skips_exactly_the_d3_to_d1_lift_and_s4_keeps_its_lift(monkeypatch):
    lifted = []
    inner = ChartOverlap.map_many

    def spy(self, Z):
        lifted.append(f"{self.src}->{self.dst}")
        return inner(self, Z)

    monkeypatch.setattr(ChartOverlap, "map_many", spy)
    for sid, want in (("S3", ["D1->D3"]), ("S4", ["far->near"])):
        lifted.clear()
        s, run = _glued(sid)
        for ov in s.downstairs_overlaps:
            P = halton_sample(ov.region, 500)
            run.cocycle.chart(ov.src).potential.eval_many(P)
        assert sorted(set(lifted)) == want, sid


def test_the_skipped_s3_lift_would_add_only_zeros(monkeypatch):
    s, run = _glued("S3")
    ov31 = next(ov for ov in s.downstairs_overlaps if ov.src == "D3")
    chi1 = run.steps[0].correction
    P = halton_sample(ov31.region, 20_000)
    assert ov31.region.contains_many(P).all()
    assert np.array_equal(chi1.eval_many(ov31.map_many(P)), np.zeros(len(P)))
    skipped = run.cocycle.chart("D3").potential.eval_many(P)
    monkeypatch.setattr(smoothing, "_overlap_misses", lambda ov, V: False)
    _, kept = _glued("S3")
    assert np.array_equal(skipped, kept.cocycle.chart("D3").potential.eval_many(P))


def test_s3s_glued_d1_field_adds_the_d3_correction_only_inside_the_overlap():
    # D1 -> D3 lifts step 2's correction; rows with z2 = 0, where the chart
    # swap blows up, lie outside the overlap and keep step 1's field.  Some
    # inside rows map into step 2's V, but on S3 none reaches the part of
    # it where the correction is nonzero, so the lift adds 0.0 there
    s, run = _glued("S3")
    ov13 = next(ov for ov in s.downstairs_overlaps if ov.src == "D1")
    step1, step2 = run.steps
    Z = halton_sample(run.raw.chart("D1").potential.valid_on, 4000)
    Z0 = Z[:200].copy()
    Z0[:, 1] = 0.0
    Z = np.vstack([Z, Z0])
    inside = ov13.region.contains_many(Z)
    assert 0 < inside.sum() < 4000 and not inside[4000:].any()
    assert ov13.region.members[0].contains_many(Z0).any()
    got = run.cocycle.chart("D1").potential.eval_many(Z)
    base = step1.psi.eval_many(Z)
    W = ov13.map_many(Z[inside])
    assert s.steps[1].opens.V.contains_many(W).any()
    lift = step2.correction.eval_many(W)
    assert np.isfinite(got).all()
    assert np.array_equal(got[~inside], base[~inside])
    assert np.array_equal(got[inside], base[inside] + lift)


def test_s4s_far_correction_is_continuous_where_the_near_chart_ends():
    # the far chart reaches |w| < 1/0.46; the near correction must reach it
    # on both sides of |w| = 1/0.47, where it is about 3e-4
    s, run = _glued("S4")
    raw = run.raw.chart("far").potential
    glued = run.cocycle.chart("far").potential
    ring = np.exp(2j * np.pi * np.arange(16) / 16)[:, None]
    lo, hi = (ring * (1.0 / 0.47 + d) for d in (-1e-7, 1e-7))
    inside, outside = (glued.eval_many(P) - raw.eval_many(P) for P in (lo, hi))
    assert np.min(inside) > 1e-4
    assert np.max(np.abs(outside - inside)) < 1e-6


# Report check order per scenario.  The benchmark gate compares reports to a
# frozen list position by position, so a reordering is a breaking change.
CHECK_NAMES = {
    "S1": [
        "upstairs_cocycle_dev_max", "agreement_outside_N_sup",
        "levi_min_kink_h", "levi_min_kink_h2",
        "levi_min_band_h", "levi_min_band_h2",
        "c2_ratio_raw", "c2_ratio_smoothed",
        "mass_raw_rel_err", "mass_smoothed_drift",
    ],
    "S2": [
        "upstairs_cocycle_dev_max", "agreement_outside_N_sup",
        "levi_min_kink_slice_h", "levi_min_kink_slice_h2",
        "levi_min_band_slice_h", "levi_min_band_slice_h2",
        "levi_min_boxgap_slice_h", "levi_min_boxgap_slice_h2",
        "levi_min_far_slice_h", "levi_min_far_slice_h2",
        "c2_ratio_raw", "c2_ratio_smoothed",
        "mass_raw_rel_err", "mass_smoothed_drift",
    ],
    "S3": [
        "upstairs_cocycle_dev_max",
        "overlap_dev_change_D1_D3", "overlap_dev_change_D3_D1",
        "agreement_outside_N_sup_D1", "agreement_outside_N_sup_D3",
        "levi_min_kink_slice_D1_h", "levi_min_kink_slice_D1_h2",
        "levi_min_kink_slice_D3_h", "levi_min_kink_slice_D3_h2",
        "levi_min_band_slice_D1_h", "levi_min_band_slice_D1_h2",
        "levi_min_band_slice_D3_h", "levi_min_band_slice_D3_h2",
        "c2_ratio_raw", "c2_ratio_smoothed",
        "curve_mass_upstairs_rel_err", "curve_mass_raw_rel_err",
        "curve_mass_smoothed_rel_err",
    ],
    "S4": [
        "upstairs_cocycle_dev_max",
        "overlap_dev_change_near_far", "overlap_dev_change_far_near",
        "correction_lift_sup",
        "agreement_outside_N_sup_near", "agreement_outside_N_sup_far",
        "levi_min_near_disk_h", "levi_min_near_disk_h2",
        "levi_min_far_ring_h", "levi_min_far_ring_h2",
        "c2_ratio_raw", "c2_ratio_smoothed",
        "mass_raw_rel_err", "mass_smoothed_drift",
        "glue_matches_local_sup",
    ],
}


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_spec_tuples_name_the_checks_in_report_order(sid):
    # run_scenario emits the upstairs cocycle check, then the battery in order
    s = build_scenario(sid)
    names = ["upstairs_cocycle_dev_max"]
    names += [name for spec in s.battery for name in spec.names]
    assert names == CHECK_NAMES[sid]
    assert len(names) == {"S1": 10, "S2": 14, "S3": 18, "S4": 15}[sid]


def test_c2_spec_on_a_flat_field_gives_check_records():
    dom = Disk(0.0, 1.0)
    flat = ScalarField(lambda Z: np.full(Z.shape[0], 2.0), dom, name="flat")
    cocycle = KahlerCocycle((CocycleChart("w", flat),))
    run = GlueResult(cocycle, cocycle, [])
    spec = C2Zone("w", Lattice(Disk(0.0, 0.3)), 0.05)
    checks = [check for _, check in spec.run(None, run, None)]
    assert [c["name"] for c in checks] == ["c2_ratio_raw", "c2_ratio_smoothed"]
    assert [c["value"] for c in checks] == [1.0, 1.0]
    # a flat raw field has no kink to detect; the smoothed side passes
    assert [c["pass"] for c in checks] == [False, True]


DUMP_HEADERS = {
    "S1_w_smoothed.csv": "re_1,im_1,value",
    "S2_sp_smoothed_kink_slice.csv": "re_1,im_1,re_2,im_2,value",
    "S3_D1_smoothed_kink_slice.csv": "re_1,im_1,re_2,im_2,value",
    "S3_D3_smoothed_kink_slice.csv": "re_1,im_1,re_2,im_2,value",
    "S4_near_smoothed.csv": "re_1,im_1,value",
}


def test_dump_specs_write_the_field_dumps(tmp_path):
    for sid in SCENARIO_IDS:
        s = build_scenario(sid)
        run = smooth_pushforward(s.cover, s.upstairs, s.downstairs_overlaps,
                                 s.steps, s.params)
        for spec in s.battery:
            if isinstance(spec, FieldDump):
                assert list(spec.run(s, run, str(tmp_path))) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DUMP_HEADERS)
    for name, header in DUMP_HEADERS.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) > 1, name
