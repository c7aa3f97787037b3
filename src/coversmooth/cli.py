"""Command line front end: list, run, verify, and sweep scenarios.

Exit codes: 0 all executed checks pass, 1 a check failed, 2 usage or
configuration error.  Reports are written atomically (temp file in the
target directory, then rename) so a crash never leaves a half-written
file, and identical invocations produce byte-identical files.  Every
output path is checked for writing before a scenario runs.  Errors are
printed to stderr as single lines of the form "error: <category>: <msg>".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

from .errors import CoverSmoothError, ScenarioError
from .scenarios import (
    SCENARIO_IDS,
    build_scenario,
    check_passes,
    run_scenario,
    scenario_defaults,
)

_OVERRIDE_FLAGS = ("h", "eps", "eta", "delta", "n_radius", "nprime_radius")
_CONFIG_ERROR_TYPES = ("ParameterError", "ScenarioError")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints a usage block and exits on its own; route through the
    # single-line error contract instead
    def error(self, message):
        raise _UsageError(message)


def _fail(category: str, message: str) -> None:
    line = " ".join(str(message).split())
    print(f"error: {category}: {line}", file=sys.stderr)


def _write_json_atomic(payload, path: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_writable(flag: str, path: str, is_dir: bool = False) -> None:
    """Raise a usage error, before any work, unless a file can be written
    at path (or in the directory path); directories are created as the
    writers create them."""
    directory = path if is_dir else os.path.dirname(os.path.abspath(path))
    try:
        if not is_dir and os.path.isdir(path):
            raise IsADirectoryError(f"{path!r} is a directory")
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise _UsageError(f"cannot write {flag} {path}: {exc}") from None


def _build_parser() -> _Parser:
    top = _Parser(prog="coversmooth",
                  description="run and verify branched-cover smoothing scenarios")
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print scenario ids and default parameters")

    def add_run_flags(p):
        p.add_argument("--scenario", required=True, help="scenario id (S1..S4)")
        for key in _OVERRIDE_FLAGS:
            p.add_argument("--" + key.replace("_", "-"), type=float,
                           default=None, dest=key)

    runp = sub.add_parser("run", help="run one scenario and write its report")
    add_run_flags(runp)
    runp.add_argument("--out", required=True, help="report JSON path")
    runp.add_argument("--dump-fields", default=None, metavar="DIR",
                      help="also write smoothed-field CSV dumps here")
    runp.add_argument("--timings", default=None, metavar="FILE",
                      help="also write per-stage wall times (s) as JSON here")

    verifyp = sub.add_parser("verify",
                             help="re-check a stored report's consistency")
    verifyp.add_argument("--report", required=True, help="report JSON path")

    sweepp = sub.add_parser("sweep",
                            help="run one scenario across a list of values")
    sweepp.add_argument("--scenario", required=True)
    sweepp.add_argument("--param", required=True,
                        help="override to vary (h, eps, eta, delta, "
                             "n-radius, nprime-radius)")
    sweepp.add_argument("--values", required=True,
                        help="comma separated numbers")
    sweepp.add_argument("--out", required=True, help="sweep JSON path")
    return top


def _collect_overrides(args) -> dict:
    return {key: getattr(args, key) for key in _OVERRIDE_FLAGS
            if getattr(args, key) is not None}


def _exit_code(report: dict):
    """(exit code, error line) of a report: 0 when it passes, 2 with the
    first configuration error, else 1 with the failing check names."""
    if report["pass"]:
        return 0, ""
    for c in report["checks"]:
        if c.get("error_type") in _CONFIG_ERROR_TYPES:
            return 2, c["error"]
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    return 1, f"failing checks: {', '.join(failing)}"


def _cmd_list(args) -> int:
    for sid in SCENARIO_IDS:
        defaults = scenario_defaults(sid)
        flat = " ".join(f"{k}={defaults[k]:g}" for k in sorted(defaults))
        print(f"{sid}  {flat}")
    return 0


def _cmd_run(args) -> int:
    scenario = build_scenario(args.scenario, _collect_overrides(args))
    _require_writable("--out", args.out)
    if args.timings:
        _require_writable("--timings", args.timings)
    if args.dump_fields:
        _require_writable("--dump-fields", args.dump_fields, is_dir=True)
    timings = {} if args.timings else None
    report = run_scenario(scenario, dump_dir=args.dump_fields, timings=timings)
    _write_json_atomic(report, args.out)
    if args.timings:
        _write_json_atomic(timings, args.timings)
    code, why = _exit_code(report)
    if code:
        _fail("config" if code == 2 else "check", why)
    n_pass = sum(1 for c in report["checks"] if c["pass"])
    print(f"{report['scenario']}: {n_pass}/{len(report['checks'])} checks pass "
          f"-> {args.out}")
    return code


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cmd_verify(args) -> int:
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except OSError as exc:
        _fail("usage", f"cannot read report: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        _fail("config", f"report is not valid JSON: {exc}")
        return 2
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not isinstance(report.get("pass"), bool):
        _fail("config", "report needs a checks list and a boolean pass")
        return 2
    for c in checks:
        if not isinstance(c, dict) or not {"name", "value", "tol", "pass"} <= set(c):
            _fail("config", "check record lacks name/value/tol/pass")
            return 2
        if not all(_is_number(c[k]) for k in ("value", "tol")):
            _fail("config", f"check {c['name']!r} has a non-numeric value or tol")
            return 2
        if not isinstance(c["pass"], bool) or c.get("kind", "le") not in ("le", "ge"):
            _fail("config", f"check {c['name']!r} needs a boolean pass and "
                            "kind le or ge")
            return 2
        if c["pass"] != check_passes(c):
            _fail("check", f"stored verdict for {c['name']} contradicts "
                           f"value={c['value']!r} tol={c['tol']!r}")
            return 1
    overall = all(c["pass"] for c in checks)
    if report["pass"] != overall:
        _fail("check", "stored overall pass contradicts the check list")
        return 1
    n = len(checks)
    print(f"{report.get('scenario', '?')}: report consistent, "
          f"{n} checks, pass={overall}")
    return 0 if overall else 1


def _cmd_sweep(args) -> int:
    key = args.param.replace("-", "_")
    if key not in _OVERRIDE_FLAGS:
        _fail("usage", f"unknown sweep param {args.param!r}; "
                       f"allowed: {', '.join(_OVERRIDE_FLAGS)}")
        return 2
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        _fail("usage", f"--values must be comma separated numbers, "
                       f"got {args.values!r}")
        return 2
    if not values:
        _fail("usage", "--values is empty")
        return 2
    _require_writable("--out", args.out)

    reports = []
    worst = 0
    for val in values:
        scenario = build_scenario(args.scenario, {key: val})
        report = run_scenario(scenario)
        reports.append({"value": val, "report": report})
        worst = max(worst, _exit_code(report)[0])
    _write_json_atomic(reports, args.out)
    n_pass = sum(1 for r in reports if r["report"]["pass"])
    print(f"{args.scenario} sweep {key}: {n_pass}/{len(reports)} passing "
          f"-> {args.out}")
    if worst == 2:
        _fail("config", f"sweep hit a configuration error; see {args.out}")
    elif worst == 1:
        _fail("check", f"sweep has failing checks; see {args.out}")
    return worst


_COMMANDS = {"list": _cmd_list, "run": _cmd_run, "verify": _cmd_verify,
             "sweep": _cmd_sweep}


def execute(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _fail("usage", str(exc))
        return 2
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _fail("usage", str(exc))
        return 2
    except ScenarioError as exc:
        _fail("config", str(exc))
        return 2
    except CoverSmoothError as exc:
        _fail("config", f"{type(exc).__name__}: {exc}")
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
