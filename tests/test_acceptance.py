"""Acceptance battery.

One test per shipped guarantee; run with -v to get one verdict line per
criterion.  Scenario reports come from the shared session fixture, so the
four batteries run exactly once for the whole suite.
"""

import subprocess
import sys

import numpy as np
import pytest

from coversmooth.cocycle import CocycleChart, KahlerCocycle
from coversmooth.covers import PowerCover, VietaCover, pushforward
from coversmooth.geometry import (
    Annulus,
    Disk,
    Polydisk,
    ScalarField,
    halton_sample,
    sample_grid,
)
from coversmooth.psh import min_levi_eigenvalue, reg_max_many
from coversmooth.smoothing import GlueStep, NestedOpens, SmoothingParams, global_glue, local_smooth


def _reg_max_fields(u, v, eta):
    """Pointwise regularized maximum of two fields on u's domain."""
    return ScalarField(lambda Z: reg_max_many(u.eval_many(Z), v.eval_many(Z), eta),
                       u.valid_on)


def _check(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"{report['scenario']}: no check named {name}")


def test_criterion_1_smoothed_field_equals_pushforward_exactly_outside_N_for_S1_and_S2_in_under_30s(
    scenario_runs,
):
    for sid in ("S1", "S2"):
        report, timings = scenario_runs[sid]
        assert report["env"]["agreement_samples"] == 10000
        agreements = [
            c for c in report["checks"] if c["name"].startswith("agreement_outside_N_sup")
        ]
        assert agreements, sid
        for c in agreements:
            assert c["value"] == 0.0, (sid, c)
            assert c["pass"] is True
        spent = sum(v for k, v in timings.items() if k.startswith("agreement"))
        assert spent < 30.0, (sid, spent)


def test_criterion_2_levi_margin_stays_positive_at_h_and_h_over_2_across_the_branch_locus_in_under_2min(
    scenario_runs,
):
    total = 0.0
    for sid, (report, timings) in scenario_runs.items():
        margins = [c for c in report["checks"] if c["name"].startswith("levi_min_")]
        assert margins, sid
        names = {c["name"] for c in margins}
        # every zone is measured at both resolutions
        for name in names:
            if name.endswith("_h"):
                assert name + "2" in names, (sid, name)
        if sid in ("S1", "S2", "S3"):
            assert any("kink" in name for name in names), sid
        for c in margins:
            assert c["value"] > 0.0, (sid, c["name"], c["value"])
            assert c["pass"] is True
        spent = sum(v for k, v in timings.items() if k.startswith("levi_min_"))
        assert spent < 120.0, (sid, spent)
        total += spent
    assert total < 120.0, total


def test_criterion_3_c2_refinement_ratio_smoothed_at_most_1p5_and_raw_kink_at_least_1p9_in_under_1min(
    scenario_runs,
):
    for sid, (report, timings) in scenario_runs.items():
        raw = _check(report, "c2_ratio_raw")
        smoothed = _check(report, "c2_ratio_smoothed")
        assert raw["value"] >= 1.9, (sid, raw["value"])
        assert smoothed["value"] <= 1.5, (sid, smoothed["value"])
        assert raw["pass"] and smoothed["pass"]
        assert timings.get("c2_ratios", 0.0) < 60.0, sid


def test_criterion_4_disk_mass_kept_to_1pct_and_curve_class_8pi_kept_to_2pct_across_N(
    scenario_runs,
):
    report, _ = scenario_runs["S1"]
    assert _check(report, "mass_raw_rel_err")["value"] <= 0.01
    assert _check(report, "mass_smoothed_drift")["value"] <= 1e-9
    report3, timings3 = scenario_runs["S3"]
    for name in (
        "curve_mass_upstairs_rel_err",
        "curve_mass_raw_rel_err",
        "curve_mass_smoothed_rel_err",
    ):
        c = _check(report3, name)
        assert c["value"] <= 0.02, (name, c["value"])
        assert c["pass"] is True
    assert timings3.get("total", 0.0) < 300.0


def test_criterion_5_pushforward_matches_closed_forms_to_1e_minus_9_and_unit_pushforward_is_the_degree():
    up = Disk(0.0, 1.1)
    cover = PowerCover(2, Disk(0.0, 1.21))
    f = ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, up, name="sq")
    W = halton_sample(cover.downstairs, 1000)
    got = pushforward(cover, f).eval_many(W)
    assert np.max(np.abs(got - 2.0 * np.abs(W[:, 0]))) <= 1e-9

    vup = Polydisk((0, 0), (3.3, 3.3))
    vieta = VietaCover(Polydisk((0, 0), (2.5, 2.0)))
    g = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 2 + np.abs(Z[:, 1]) ** 2, vup, name="ss"
    )
    B = halton_sample(vieta.downstairs, 1000)
    s, p = B[:, 0], B[:, 1]
    want = np.abs(s) ** 2 + np.abs(s * s - 4.0 * p)
    assert np.max(np.abs(pushforward(vieta, g).eval_many(B) - want)) <= 1e-9

    for cover2, dom, pts in ((cover, up, W), (vieta, vup, B)):
        one = ScalarField(
            lambda Z: np.ones(Z.shape[0]), dom, name="one"
        )
        vals = pushforward(cover2, one).eval_many(pts)
        assert np.array_equal(vals, np.full(len(pts), float(cover2.degree)))


def test_criterion_6_regularized_max_axioms_hold_on_1e5_samples_each_and_psh_survives_on_grids():
    rng = np.random.default_rng(20260819)
    N = 100000
    T1 = rng.uniform(-40.0, 40.0, N)
    T2 = rng.uniform(-40.0, 40.0, N)
    etas = 10.0 ** rng.uniform(-4.0, 0.3, 10)
    for eta, idx in zip(etas, np.array_split(np.arange(N), len(etas))):
        a, b = T1[idx], T2[idx]
        M = reg_max_many(a, b, eta)
        top = np.maximum(a, b)
        assert np.all(M >= top - 1e-12) and np.all(M <= top + eta + 1e-12)
        assert np.max(np.abs(reg_max_many(b, a, eta) - M)) <= 1e-10
        shift = rng.uniform(-5.0, 5.0, idx.size)
        assert np.max(np.abs(reg_max_many(a + shift, b + shift, eta) - (M + shift))) <= 1e-9
        assert np.all(reg_max_many(a + rng.uniform(0, 3, idx.size),
                                   b + rng.uniform(0, 3, idx.size), eta) >= M - 1e-12)
        gap = 2.0 * eta * (1.0 + rng.uniform(0.0, 1.0, idx.size))
        far = a + np.where(rng.uniform(size=idx.size) < 0.5, 1.0, -1.0) * gap
        assert np.array_equal(reg_max_many(a, far, eta), np.maximum(a, far))
        a2, b2 = rng.uniform(-40, 40, idx.size), rng.uniform(-40, 40, idx.size)
        mid = reg_max_many(0.5 * (a + a2), 0.5 * (b + b2), eta)
        avg = 0.5 * (M + reg_max_many(a2, b2, eta))
        assert np.all(mid <= avg + 1e-9)

    dom = Disk(0.0, 0.8)
    u = ScalarField(lambda Z: np.abs(Z[:, 0] - 0.2) ** 2, dom, name="u")
    v = ScalarField(lambda Z: np.abs(Z[:, 0] + 0.2) ** 2 + 0.05, dom, name="v")
    rep1 = min_levi_eigenvalue(_reg_max_fields(u, v, 0.05), sample_grid(Disk(0.0, 0.5), 5e-3), 2.5e-3)
    assert rep1.min_eigenvalue >= -1e-6
    dom2 = Polydisk((0, 0), (0.8, 0.8))
    u2 = ScalarField(
        lambda Z: np.abs(Z[:, 0]) ** 2 + np.abs(Z[:, 1]) ** 2, dom2, name="u2"
    )
    v2 = ScalarField(
        lambda Z: 1.4 * np.abs(Z[:, 0]) ** 2 + 0.6 * np.abs(Z[:, 1]) ** 2 - 0.1,
        dom2,
        name="v2",
    )
    rep2 = min_levi_eigenvalue(
        _reg_max_fields(u2, v2, 0.05), sample_grid(Polydisk((0, 0), (0.5, 0.5)), 0.1), 0.01
    )
    assert rep2.min_eigenvalue >= -1e-6


def test_criterion_7_corrections_vanish_off_their_support_devs_are_kept_and_one_step_glue_is_bitwise(
    scenario_runs,
):
    # step correction: exact zero outside the middle open, input passed verbatim
    dom = Disk(0.0, 0.8)

    def kinked(Z):
        r2 = np.abs(Z[:, 0]) ** 2
        return np.maximum(r2, 1.2 * r2 - 0.02)

    phi = ScalarField(kinked, dom, name="kinked")
    opens = NestedOpens(Disk(0.0, 0.36), Disk(0.0, 0.50), Disk(0.0, 0.60))
    params = SmoothingParams(eps=0.04, delta=8e-4, eta=4e-4, h=2e-3)
    res = local_smooth(phi, opens, params)
    outside = halton_sample(Annulus(0.0, 0.52, 0.78), 1000)
    assert np.array_equal(res.correction.eval_many(outside), np.zeros(1000))
    assert np.array_equal(res.psi.eval_many(outside), phi.eval_many(outside))
    inside = halton_sample(Disk(0.0, 0.34), 200)
    assert np.max(res.correction.eval_many(inside)) > 0.0

    glued = global_glue(
        KahlerCocycle((CocycleChart("c", phi),), ()),
        [GlueStep("c", opens)],
        params,
    )
    probe = halton_sample(Disk(0.0, 0.78), 800)
    assert np.array_equal(
        glued.cocycle.chart("c").potential.eval_many(probe), res.psi.eval_many(probe)
    )

    # multi-chart sweeps: corrected cocycles keep overlap pluriharmonicity
    for sid in ("S3", "S4"):
        report, _ = scenario_runs[sid]
        dev_changes = [
            c for c in report["checks"] if c["name"].startswith("overlap_dev_change_")
        ]
        assert dev_changes, sid
        for c in dev_changes:
            assert c["value"] <= 1e-8, (sid, c["name"], c["value"])
    report4, _ = scenario_runs["S4"]
    assert _check(report4, "glue_matches_local_sup")["value"] == 0.0
    assert _check(report4, "correction_lift_sup")["value"] > 0.0


def test_criterion_8_repeated_cli_invocations_produce_byte_identical_reports(tmp_path,
                                                                           subprocess_env):
    blobs = []
    for k in (1, 2):
        out = tmp_path / f"r{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "coversmooth", "run", "--scenario", "S4",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].endswith(b"\n")
