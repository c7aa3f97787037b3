"""The report summary scripts/compare_outputs.py prints under a report that
differs."""

import importlib.util
import json
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _report(tmp_path, name, values, passes=(True, True, True), **rest):
    checks = [{"name": n, "value": v, "tol": 1.0, "kind": "le", "pass": p}
              for n, v, p in zip(("a", "b", "c"), values, passes)]
    path = tmp_path / name
    path.write_text(json.dumps({"checks": checks, **rest}))
    return path


def test_equal_verdicts_and_the_largest_relative_move_are_named(tmp_path):
    a = _report(tmp_path, "a.json", (0.0, 0.5, 2.0))
    b = _report(tmp_path, "b.json", (0.0, 0.5 + 1e-12, 2.0 * (1 + 3e-10)))
    line = compare_outputs.report_moves(a, b)
    assert line.startswith("check names, kinds and verdicts equal;")
    assert line.endswith("largest relative value move 3e-10 (c)")


def test_a_flipped_verdict_and_a_value_gone_non_finite_are_flagged(tmp_path):
    a = _report(tmp_path, "a.json", (0.0, 0.5, 2.0))
    b = _report(tmp_path, "b.json", (0.0, math.nan, 2.0), (True, False, True))
    line = compare_outputs.report_moves(a, b)
    assert line == ("check names, kinds or verdicts DIFFER; "
                    "largest relative value move inf (b)")
    assert compare_outputs._relative_move(math.nan, math.nan) == 0.0


def test_the_keys_outside_the_checks_that_differ_are_named_with_both_values(tmp_path):
    env = {"moll_kernel_nodes": 176, "numpy": "2.4.6", "battery_h": {"kink": [0.003]}}
    a = _report(tmp_path, "a.json", (0.0, 0.5, 2.0), env=env)
    b = _report(tmp_path, "b.json", (0.0, 0.7, 2.0),
                env=dict(env, moll_kernel_nodes=80, battery_h={"kink": [0.006]},
                         new=1))
    assert compare_outputs.report_key_moves(a, b) == (
        "env.battery_h.kink: [0.003] -> [0.006]; "
        "env.moll_kernel_nodes: 176 -> 80; env.new: absent -> 1")
    # a differing check value is report_moves' business, not this line's
    assert compare_outputs.report_key_moves(a, _report(tmp_path, "c.json", (1.0, 1.0, 1.0),
                                                       env=env)) == ""
