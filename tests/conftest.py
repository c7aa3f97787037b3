"""Shared fixtures.

The scenario battery fixture runs every shipped scenario exactly once and is
session scoped: a full sweep takes on the order of two minutes, almost all of
it in the finite-difference positivity grids.
"""

import os
from pathlib import Path

import pytest

import coversmooth
from coversmooth import build_scenario, run_scenario
from coversmooth.scenarios import SCENARIO_IDS


@pytest.fixture(scope="session")
def scenario_runs():
    """Map scenario id -> (report dict, stage timings dict)."""
    out = {}
    for sid in SCENARIO_IDS:
        timings = {}
        report = run_scenario(build_scenario(sid), timings=timings)
        out[sid] = (report, timings)
    return out


@pytest.fixture
def subprocess_env():
    """Environment for `python -m coversmooth` in a child interpreter: the
    package's source root on PYTHONPATH, which pytest's pythonpath setting
    does not pass on to subprocesses."""
    src = str(Path(coversmooth.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env
