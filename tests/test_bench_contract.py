"""The benchmark tracer (bench/layertrace.py) still fits the package.

The tracer wraps package functions and methods at their module-level
bindings and binds their arguments by name; a renamed binding or argument
would otherwise only show up in the slow benchmark self-test.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from coversmooth import covers, geometry, psh, scenarios, smoothing

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
VERIFY_CHECKS = LAYERTRACE.parent / "data" / "verify_checks.json"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _hook_argument_names(hook) -> set:
    """String keys the hook reads from its bound-arguments dict."""
    tree = ast.parse(inspect.getsource(hook))
    args_name = tree.body[0].args.args[1].arg
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == args_name
            and isinstance(node.slice, ast.Constant)}


def test_tracer_installs_and_restores_every_binding():
    lt = _layertrace()
    mods = {name: importlib.import_module("coversmooth." + name)
            for name in lt.LAYERS}
    before = {(m, a): mod.__dict__.get(a) for m, mod in mods.items()
              for _, a, *_ in lt._FUNCTIONS}
    with lt.Tracer().installed() as tracer:
        assert tracer.wrapped
    after = {(m, a): mod.__dict__.get(a) for m, mod in mods.items()
             for _, a, *_ in lt._FUNCTIONS}
    assert after == before


def test_hooked_functions_keep_the_argument_names_their_hooks_bind():
    lt = _layertrace()
    targets = []
    for home, attr, _, before, _ in lt._FUNCTIONS:
        mod = importlib.import_module("coversmooth." + home)
        targets.append((f"{home}.{attr}", getattr(mod, attr), before))
    for home, cls, attr, _, before in lt._METHODS:
        mod = importlib.import_module("coversmooth." + home)
        targets.append((f"{home}.{cls}.{attr}", getattr(mod, cls).__dict__[attr],
                        before))
    hooked = [(site, fn, before) for site, fn, before in targets if before]
    assert hooked
    for site, fn, before in hooked:
        names = _hook_argument_names(before)
        assert names, site
        assert names <= set(inspect.signature(fn).parameters), site


def test_results_keep_what_the_after_hooks_read():
    fields = {f.name for f in dataclasses.fields(smoothing.LocalSmoothResult)}
    assert {"psi", "correction"} <= fields
    dom = geometry.Disk(0.0, 1.0)
    f = geometry.ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
    assert psh.mollify(f, 0.1).meta["kernel_nodes"] > 0


def test_the_selftest_closed_form_still_spans_two_levi_blocks(monkeypatch):
    # bench/selftest.py builds Grid(nodes, h, domain) positionally on a
    # 100 x 100 lattice and needs min_levi_eigenvalue to split it into at
    # least two levi_form_many calls
    k, h = 100, 0.01
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    nodes = (0.1 + h * ii.ravel() + 1j * (0.2 + h * jj.ravel()))[:, None]
    dom = geometry.Disk(0.0, 10.0)
    grid = geometry.Grid(nodes, h, dom)
    f = geometry.ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
    rows = []
    inner = psh.levi_form_many

    def spy(f, Z, h):
        rows.append(len(Z))
        return inner(f, Z, h)

    monkeypatch.setattr(psh, "levi_form_many", spy)
    rep = psh.min_levi_eigenvalue(f, grid, h)
    assert len(rows) >= 2
    assert sum(rows) == k * k
    assert abs(rep.min_eigenvalue - 1.0) < 1e-6


def test_a_built_s3_keeps_what_the_eval_workload_reads():
    # bench/worker.py builds S3, runs smooth_pushforward on its fields and
    # draws points from each step's W, testing them against V
    s = scenarios.build_scenario("S3")
    for attr in ("cover", "upstairs", "downstairs_overlaps", "steps", "params",
                 "X1", "X2"):
        assert hasattr(s, attr), attr
    assert s.steps
    for step in s.steps:
        assert isinstance(step.chart_name, str)
        assert isinstance(step.opens.V, geometry.Domain)
        assert step.opens.W is not None
    params = inspect.signature(smoothing.smooth_pushforward).parameters
    assert {"X1", "X2"} <= set(params)


def test_the_s3_pipeline_result_keeps_the_charts_the_eval_workload_reads():
    # bench/worker.py reads run.cocycle.chart(...) and run.raw.chart(...)
    # for every step's chart
    s = scenarios.build_scenario("S3")
    run = smoothing.smooth_pushforward(s.cover, s.upstairs,
                                       s.downstairs_overlaps, s.steps, s.params)
    for step in s.steps:
        for cocycle in (run.raw, run.cocycle):
            assert isinstance(cocycle.chart(step.chart_name).potential,
                              geometry.ScalarField)
    assert len(run.steps) == len(s.steps)
    assert smoothing.global_glue(run.raw, (), s.params).raw is run.raw


def test_eval_s3_reaches_every_site_the_selftest_expects_of_it(monkeypatch):
    # bench/selftest.py checks reach in a two-minute run; this traces the
    # same eval_s3 set-up and two batches.  Drawing the batches inside the
    # tracer adds only Domain.contains_many, which psi reaches anyway
    monkeypatch.syspath_prepend(str(LAYERTRACE.parent))
    spec = importlib.util.spec_from_file_location(
        "selftest", LAYERTRACE.parent / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    meant = {site for site, workloads in selftest.EXPECTED_REACH.items()
             if selftest.EV in workloads}
    with selftest.Tracer().installed() as tracer:
        wl = selftest.worker.EvalWorkload(7)
        for batch in wl.batches(2, np.random.default_rng(7)):
            wl.run_batch(batch)
    assert sorted(meant - tracer.reached) == []


@pytest.mark.parametrize("sid", ["S1", "S3", "S4"])
def test_pushforward_construction_still_probes_through_fiber_rows(sid, monkeypatch):
    # bench/selftest.py expects covers.halton_sample and each cover's
    # fiber_rows to be reached; the containment proof must not replace the
    # 128-point probe that reaches them
    s = scenarios.build_scenario(sid)
    for pair in s.cover:
        cover = pair.cover
        drawn, probed = [], []
        inner_sample = covers.halton_sample
        inner_rows = type(cover).fiber_rows

        def sample(domain, count):
            out = inner_sample(domain, count)
            drawn.append((domain, count, out))
            return out

        def rows(self, B):
            probed.append(B)
            return inner_rows(self, B)

        monkeypatch.setattr(covers, "halton_sample", sample)
        monkeypatch.setattr(type(cover), "fiber_rows", rows)
        covers.pushforward(cover, s.upstairs.chart(pair.upstairs_name).potential)
        monkeypatch.undo()
        assert [(d, c) for d, c, _ in drawn] == [(cover.downstairs, 128)]
        assert len(probed) == 1 and probed[0] is drawn[0][2]


def _frozen_reports():
    """(report key, frozen record) of each verify report, keyed as
    "S3 h=0.006": a scenario id, then its overrides."""
    return sorted(json.loads(VERIFY_CHECKS.read_text()).items())


@pytest.mark.parametrize("key, frozen", _frozen_reports(),
                         ids=[k for k, _ in _frozen_reports()])
def test_the_frozen_levi_node_counts_match_the_built_lattices(key, frozen):
    # bench/worker.py divides these frozen counts by the pass time to get
    # points_per_s, so a lattice that drifts would misstate the metric
    sid, *pairs = key.split()
    overrides = {k: float(v) for k, v in (p.split("=") for p in pairs)}
    s = scenarios.build_scenario(sid, overrides)
    nodes = sum(len(spec.lattice.grid(hh)) for spec in s.battery
                if isinstance(spec, scenarios.LeviZone)
                for hh in (spec.h, spec.h / 2.0))
    assert nodes == frozen["levi_nodes"]
