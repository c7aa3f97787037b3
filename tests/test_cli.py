"""Exit codes and message discipline of the command line front end."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coversmooth import cli, smoothing
from coversmooth.cli import execute
from coversmooth.scenarios import build_scenario


def _good_report():
    return {
        "scenario": "S1",
        "params": {"h": 0.01},
        "checks": [
            {"name": "a", "value": 0.5, "tol": 1.0, "kind": "le", "pass": True},
            {"name": "b", "value": 2.0, "tol": 1.0, "kind": "ge", "pass": True},
        ],
        "pass": True,
        "env": {},
    }


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_list_prints_one_line_per_scenario(capsys):
    assert execute(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 4
    for ln, sid in zip(lines, ("S1", "S2", "S3", "S4")):
        assert ln.startswith(sid)
        assert "h=" in ln


def test_every_readme_command_line_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    prefix = "python3 -m coversmooth "
    lines = [ln.strip()[len(prefix):] for ln in readme.read_text().splitlines()
             if ln.strip().startswith(prefix)]
    assert len(lines) >= 7
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line))


def test_no_arguments_is_a_usage_error(capsys):
    assert execute([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1  # single line


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert execute(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_run_requires_an_output_path(capsys):
    assert execute(["run", "--scenario", "S1"]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_run_with_unknown_scenario_is_a_config_error(tmp_path, capsys):
    code = execute(["run", "--scenario", "S9", "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "unknown scenario id" in err


def test_run_with_infeasible_gates_exits_config_and_writes_the_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = execute(
        ["run", "--scenario", "S1", "--eta", "0.5", "--delta", "0.2", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "eta <= delta/2" in err
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert any(c.get("error_type") == "ParameterError" for c in report["checks"])


def test_run_with_an_h_too_small_for_the_lattice_cap_exits_config(tmp_path, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "coversmooth", "run", "--scenario", "S1",
         "--h", "1e-5", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=subprocess_env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config:")
    assert "lattice sites <= 40000000" in lines[0]
    assert "Traceback" not in proc.stderr


def test_run_with_an_h_too_large_for_the_nesting_margin_exits_config(tmp_path,
                                                                     subprocess_env):
    # the margin gate comes before the band stencils, which would leave the
    # mollified field's domain at this h
    proc = subprocess.run(
        [sys.executable, "-m", "coversmooth", "run", "--scenario", "S1",
         "--h", "10", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=subprocess_env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config: ParameterError: margin > 0")
    assert "Traceback" not in proc.stderr


def test_an_empty_smoothing_band_is_one_config_error_line_naming_its_step(tmp_path,
                                                                          capsys):
    # at this n_radius the U level takes in V and W, so V minus U is empty
    code = execute(["run", "--scenario", "S2", "--n-radius", "1e300",
                    "--out", str(tmp_path / "r.json")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "error: config: ParameterError: band V minus U not empty [glue step 1 (sp): "
        "could not draw 400 sample points inside the domain (found 0); the region "
        "may be too thin for its bbox]"]


_HOSTILE = [
    ("S1", "--h", "nan"), ("S1", "--h", "inf"), ("S1", "--h", "0"), ("S1", "--h", "-1"),
    ("S1", "--eps", "nan"), ("S1", "--eps", "inf"), ("S1", "--eps", "0.5"),
    ("S1", "--eta", "nan"), ("S1", "--eta", "1"),
    ("S1", "--delta", "nan"), ("S1", "--delta", "inf"), ("S1", "--delta", "1e-300"),
    ("S1", "--n-radius", "nan"), ("S1", "--n-radius", "-1"),
    ("S1", "--n-radius", "1e-9"), ("S1", "--n-radius", "100"),
    ("S1", "--h", "1e300"), ("S4", "--h", "0.3"), ("S1", "--nprime-radius", "5"),
    ("S1", "--h", "1e-200"),
    # S1's band lattice would get an annulus with inner radius 0
    ("S1", "--n-radius", "0.1", "--nprime-radius", "0.01"),
]


@pytest.mark.parametrize("scenario,tail", [(c[0], c[1:]) for c in _HOSTILE],
                         ids=["-".join(c) for c in _HOSTILE])
def test_a_hostile_override_is_one_config_error_line(scenario, tail, tmp_path,
                                                       capsys):
    code = execute(["run", "--scenario", scenario, *tail,
                    "--out", str(tmp_path / "r.json")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config:")


# (gate, named measurement, field made NaN, sample, where): the field is NaN
# at the sample's eighth point ("at") or only within 1.5 stencil steps of
# it ("beside", its stencil neighbours).  The band sample feeds tau_bound
# and m (the mollified field) and K_sigma (the shift profile); U's feeds
# s_max.  A NaN at the band point makes tau_bound and m NaN, and the tau
# gate comes first
_NAN_GATES = [
    ("tau_bound < delta", "tau_bound", "phi_eps", "band", "at"),
    ("2*delta*K_sigma < m/2", "m", "phi_eps", "band", "beside"),
    ("2*delta*K_sigma < m/2", "K_sigma", "sigma", "band", "at"),
    ("2*delta >= s_max + 2*eta", "s_max", "phi_eps", "U", "at"),
]


@pytest.mark.parametrize("gate, measured, field, sample, where", _NAN_GATES,
                         ids=[g[1] for g in _NAN_GATES])
def test_a_nan_at_one_sampled_gate_point_is_one_config_error_line(
        monkeypatch, tmp_path, capsys, gate, measured, field, sample, where):
    h = build_scenario("S1").params.h
    count = {"band": smoothing.BAND_SAMPLES, "U": smoothing.U_SAMPLES}[sample]
    poisoned = []
    draw = smoothing.halton_sample

    def spy_draw(domain, k):
        pts = draw(domain, k)
        if k == count and not poisoned:
            poisoned.append(pts[7])
        return pts

    def poison(ev):
        def nan_near(Z):
            v = np.array(ev(Z), dtype=float)
            if poisoned:
                d = np.linalg.norm(Z - poisoned[0], axis=1)
                v[(d == 0.0) if where == "at" else (d > 0.0) & (d < 1.5 * h)] = np.nan
            return v
        return nan_near

    def nan_mollify(f, eps, _real=smoothing.mollify):
        g = _real(f, eps)
        g.evaluator = poison(g.evaluator)
        return g

    monkeypatch.setattr(smoothing, "halton_sample", spy_draw)
    if field == "phi_eps":
        monkeypatch.setattr(smoothing, "mollify", nan_mollify)
    else:
        monkeypatch.setattr(smoothing, "make_shift_profile",
                            lambda U, V, _real=smoothing.make_shift_profile:
                            poison(_real(U, V)))
    code = execute(["run", "--scenario", "S1", "--out", str(tmp_path / "r.json")])
    assert poisoned
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config: ParameterError: {gate}")
    assert f"{measured} = nan" in lines[0]
    assert lines[0].count("nan") == 1


def test_a_vanishing_eps_fails_the_smoothed_c2_check(tmp_path, capsys):
    code = execute(["run", "--scenario", "S1", "--eps", "1e-300",
                    "--out", str(tmp_path / "r.json")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: check:")
    assert "c2_ratio_smoothed" in lines[0]


def test_a_far_region_meeting_the_mapped_v_is_measured_not_skipped(tmp_path, capsys):
    # at this n_radius the far agreement disk |w| < 1.58 meets the mapped V,
    # |w| > 1/0.656; its part outside V is measured
    out = tmp_path / "r.json"
    code = execute(["run", "--scenario", "S4", "--n-radius", "0.66", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    far = next(c for c in checks if c["name"] == "agreement_outside_N_sup_far")
    assert far["value"] == 0.0
    assert [c["name"] for c in checks if "status" in c] == []


def test_run_rejects_a_non_numeric_override(capsys, tmp_path):
    code = execute(
        ["run", "--scenario", "S1", "--eps", "wide", "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_verify_accepts_a_consistent_report(tmp_path, capsys):
    p = tmp_path / "rep.json"
    _write(p, _good_report())
    assert execute(["verify", "--report", str(p)]) == 0
    assert "consistent" in capsys.readouterr().out


def test_verify_detects_a_tampered_check(tmp_path, capsys):
    value_moved = _good_report()
    value_moved["checks"][0]["value"] = 2.0  # stored verdict no longer follows
    # a status note must not excuse a value that fails its tol
    excused = _good_report()
    excused["checks"][0].update(name="agreement_outside_N_sup", value=5.0,
                                tol=0.0, status="not-applicable")
    for rep in (value_moved, excused):
        p = tmp_path / "rep.json"
        _write(p, rep)
        assert execute(["verify", "--report", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: check:")


def test_verify_detects_a_tampered_overall_verdict(tmp_path, capsys):
    rep = _good_report()
    rep["pass"] = False
    p = tmp_path / "rep.json"
    _write(p, rep)
    assert execute(["verify", "--report", str(p)]) == 1


def test_verify_missing_file_is_a_usage_error(tmp_path, capsys):
    assert execute(["verify", "--report", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_verify_garbage_json_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "rep.json"
    p.write_text("{not json")
    assert execute(["verify", "--report", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_verify_rejects_a_report_missing_fields(tmp_path, capsys):
    rep = _good_report()
    del rep["checks"][1]["tol"]
    p = tmp_path / "rep.json"
    _write(p, rep)
    assert execute(["verify", "--report", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def _with_first_check(**fields):
    rep = _good_report()
    rep["checks"][0].update(fields)
    return rep


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"checks": [1], "pass": True},
    _with_first_check(value="a"),
    _with_first_check(value=None),
    dict(_good_report(), **{"pass": "yes"}),
    _with_first_check(**{"pass": "yes"}),
    _with_first_check(kind="gt"),
], ids=["report_not_an_object", "check_not_an_object", "string_value",
        "null_value", "string_report_pass", "string_check_pass", "unknown_kind"])
def test_verify_malformed_report_is_one_config_error_line(payload, tmp_path, capsys):
    p = tmp_path / "rep.json"
    _write(p, payload)
    assert execute(["verify", "--report", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_sweep_rejects_an_unknown_parameter(tmp_path, capsys):
    code = execute(
        ["sweep", "--scenario", "S1", "--param", "bogus", "--values", "1,2",
         "--out", str(tmp_path / "s.json")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_sweep_rejects_malformed_values(tmp_path, capsys):
    code = execute(
        ["sweep", "--scenario", "S1", "--param", "eta", "--values", "1e-4,zap",
         "--out", str(tmp_path / "s.json")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_sweep_builds_every_value_before_the_first_run(tmp_path, capsys, monkeypatch):
    # nprime-radius 0.7 does not nest inside S1's n_radius 0.6
    def no_run(*args, **kwargs):
        raise AssertionError("a sweep value ran before every value was built")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "s.json"
    code = execute(["sweep", "--scenario", "S1", "--param", "nprime-radius",
                    "--values", "0.4,0.7", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "S1", "--out", "{file}/r.json"],
    ["run", "--scenario", "S1", "--out", "{dir}"],
    ["run", "--scenario", "S1", "--out", "{dir}/r.json", "--timings", "{file}/t.json"],
    ["run", "--scenario", "S1", "--out", "{dir}/r.json", "--dump-fields", "{file}"],
    ["sweep", "--scenario", "S1", "--param", "eta", "--values", "1e-4",
     "--out", "{file}/s.json"],
], ids=["out_under_a_file", "out_is_a_directory", "timings_under_a_file",
        "dump_fields_is_a_file", "sweep_out_under_a_file"])
def test_an_unwritable_output_is_one_usage_line_before_any_run(argv, tmp_path, capsys,
                                                               monkeypatch):
    blocker = tmp_path / "F"
    blocker.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran before its outputs were checked")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    code = execute([a.format(file=blocker, dir=tmp_path) for a in argv])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: usage: cannot write --")


def test_the_timings_sidecar_leaves_the_report_byte_identical(tmp_path):
    plain, timed = tmp_path / "a.json", tmp_path / "b.json"
    sidecar = tmp_path / "new" / "t.json"
    assert execute(["run", "--scenario", "S1", "--out", str(plain)]) == 0
    assert execute(["run", "--scenario", "S1", "--out", str(timed),
                    "--timings", str(sidecar)]) == 0
    assert plain.read_bytes() == timed.read_bytes()
    stages = json.loads(sidecar.read_text())
    assert {"upstairs_cocycle_dev_max", "pipeline", "total"} <= set(stages)
    assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
