"""Self-tests of the benchmark's tracer.

    python3 bench/selftest.py            # about two minutes on 2 cores

* closed form: the 5-point stencil over a k x k one-variable lattice has
  k^2 + 4k distinct points, with k^2 larger than one evaluation block of
  min_levi_eigenvalue, so the count has to merge blocks;
* a traced S1 report is byte-identical to an untraced one;
* counters repeat exactly across two traced runs (S1, and eval_s3 batches);
* every wrapped binding site is reached on the workload meant to reach it,
  in the workers' own trace mode.

Exits 1 and names each failed test.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import worker
from layertrace import Tracer
from coversmooth import geometry, psh

S3, N1, EV = "verify_s3", "verify_n1", "eval_s3"
ALL = (S3, N1, EV)

# wrapped site -> the workloads whose traced run must reach it
EXPECTED_REACH = {
    "geometry.Domain.contains_many": ALL,
    "geometry.halton_sample": ALL,
    "geometry.discrete_laplacian_many": (S3, N1),   # laplacian_sup, mass
    "geometry.sample_grid": (N1,),                  # mass_integral
    "psh.halton_sample": ALL,                       # mollify's probe and tau
    "psh.levi_form_many": (S3, N1),                 # min_levi_eigenvalue
    "covers.PowerCover.fiber_rows": (N1,),
    "covers.IdentityCover.fiber_rows": (N1,),
    "covers.VietaCover.fiber_rows": (S3, EV),
    "covers.halton_sample": ALL,                    # fiber containment probe
    "covers.pushforward": ALL,                      # smooth_pushforward
    "cocycle.ChartOverlap.map_many": ALL,
    "cocycle.halton_sample": (S3, N1),
    "cocycle.levi_form_many": (S3, N1),
    "smoothing.global_glue": ALL,
    "smoothing.halton_sample": ALL,
    "smoothing.levi_form_many": ALL,                # the band gates
    "smoothing.local_smooth": ALL,
    "smoothing.mollify": ALL,
    "smoothing.reg_max_many": ALL,
    "smoothing.smooth_pushforward": (EV,),          # eval_s3's set-up
    "scenarios.build_scenario": ALL,
    "scenarios.run_scenario": (S3, N1),
    "scenarios.smooth_pushforward": (S3, N1),
    "scenarios.validate_cocycle": (S3, N1),
    "scenarios.min_levi_eigenvalue": (S3, N1),
    "scenarios.laplacian_sup": (S3, N1),
    "scenarios.halton_sample": (S3, N1),
    "scenarios.sample_slice_grid": (S3,),
    "scenarios.curve_mass": (S3,),
    "scenarios.sample_grid": (N1,),
    "scenarios.mass_integral": (N1,),
    "scenarios.local_smooth": (N1,),                # S4 glue_matches_local
    "field:psh.mollify": ALL,
    "field:covers.pushforward": ALL,
    "field:smoothing.psi": ALL,
    "field:smoothing.correction": ALL,
}

# bindings in the defining module that no workload's code path reads (the
# package calls these functions through other modules' bindings); wrapped
# so that callers outside the package are traced as well
NOT_ON_ANY_WORKLOAD = {
    "geometry.mass_integral", "geometry.sample_slice_grid",
    "psh.min_levi_eigenvalue", "psh.laplacian_sup", "psh.mollify",
    "psh.reg_max_many", "cocycle.validate_cocycle", "cocycle.curve_mass",
}


def counts_only(counts: dict) -> dict:
    """Counters without the wall-clock ones."""
    return {k: v for k, v in counts.items()
            if not (k.endswith(".s") or k.endswith(".self_s"))}


def closed_form(failures: list) -> None:
    k, h = 100, 0.01
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    nodes = (0.1 + h * ii.ravel() + 1j * (0.2 + h * jj.ravel()))[:, None]
    dom = geometry.Disk(0.0, 10.0)
    grid = geometry.Grid(nodes, h, dom)
    f = geometry.ScalarField(lambda Z: np.abs(Z[:, 0]) ** 2, dom)
    tracer = Tracer()
    with tracer.installed():
        rep = psh.min_levi_eigenvalue(f, grid, h)
    c = tracer.counts
    want = {"psh.min_levi.nodes": k * k, "psh.levi_form.stencil_pts": 5 * k * k,
            "psh.levi_form.distinct_pts": k * k + 4 * k}
    for name, value in want.items():
        if c[name] != value:
            failures.append(f"closed form: {name} = {c[name]:g}, want {value}")
    if c["psh.levi_form.calls"] < 2:
        failures.append("closed form: the grid fit in one evaluation block")
    if not abs(rep.min_eigenvalue - 1.0) < 1e-6:
        failures.append(f"closed form: Levi value {rep.min_eigenvalue!r}, want 1")


def byte_identical_and_repeatable(failures: list) -> None:
    plain = worker.report_bytes(worker.scenarios.run_scenario(
        worker.scenarios.build_scenario("S1")))
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced = worker.report_bytes(worker.scenarios.run_scenario(
                worker.scenarios.build_scenario("S1")))
        if traced != plain:
            failures.append("S1: traced report bytes differ from untraced ones")
        runs.append(counts_only(tracer.counts))
    if runs[0] != runs[1]:
        failures.append("S1: counters differ between two traced runs")

    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            wl = worker.EvalWorkload(7)
            batches = wl.batches(2, np.random.default_rng(7))
            for b in batches:
                wl.run_batch(b)
        runs.append(counts_only(tracer.counts))
    if runs[0] != runs[1]:
        failures.append("eval_s3: counters differ between two traced runs")


def reach(failures: list) -> None:
    wrapped = set()
    for workload in worker.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(worker.BENCH / "worker.py"), "--workload",
             workload, "--seed", "1", "--mode", "trace"],
            capture_output=True, text=True, timeout=300)
        lines = [ln for ln in out.stdout.splitlines() if ln.startswith("RESULT ")]
        if out.returncode != 0 or not lines:
            failures.append(f"{workload}: trace worker failed\n{out.stderr}")
            continue
        res = json.loads(lines[-1][len("RESULT "):])
        wrapped.update(res["wrapped"])
        if not res["identical"] or res["failed"]:
            failures.append(f"{workload}: traced outputs not identical or gated out")
        reached = set(res["reached"])
        for site, meant in EXPECTED_REACH.items():
            if workload in meant and site not in reached:
                failures.append(f"{workload}: wrapped site {site} not reached")
        print(f"{workload}: {len(reached)} wrapped sites reached")
    for site in sorted(wrapped - set(EXPECTED_REACH) - NOT_ON_ANY_WORKLOAD):
        failures.append(f"wrapped site {site} has no workload meant to reach it")


def main() -> int:
    failures = []
    for test in (closed_form, byte_identical_and_repeatable, reach):
        before = len(failures)
        test(failures)
        print(f"{test.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
