"""Exit codes and message discipline of the command line front end."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coversmooth import cli
from coversmooth.cli import execute


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


def test_a_vanishing_eps_fails_the_smoothed_c2_check(tmp_path, capsys):
    code = execute(["run", "--scenario", "S1", "--eps", "1e-300",
                    "--out", str(tmp_path / "r.json")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: check:")
    assert "c2_ratio_smoothed" in lines[0]


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
    rep = _good_report()
    rep["checks"][0]["value"] = 2.0  # stored verdict no longer follows
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
