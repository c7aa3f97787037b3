"""One benchmark worker process.

Started by run.py, one at a time, each in a fresh interpreter:

    python3 bench/worker.py --workload W --seed N --seconds S --mode M

Every mode first sets the workload up (imports, builds the scenarios, and
on eval_s3 runs the smoothing pipeline) and prints ``READY``; run.py times
a fresh process from its start to that line.  ``setup`` then exits.
``measure`` times passes until ``--seconds`` have gone by, gates every
output and prints one ``RESULT {json}`` line.  ``trace`` runs one pass
of fixed work untraced, then the same set-up and pass again under the
tracer, and reports per-layer numbers; both runs' outputs must be equal
bit for bit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from coversmooth import scenarios, smoothing  # noqa: E402

from layertrace import Tracer, stage_metrics  # noqa: E402

# workload -> the reports of one pass, as (scenario id, overrides)
VERIFY_PASSES = {
    "verify_s3": (("S3", {"h": 6e-3}),),
    "verify_n1": (("S1", {}), ("S4", {})),
}
EVAL_HALF_BATCH = 2048     # points per chart in one 4096-point batch
EVAL_PASS_BATCHES = 16     # batches in one eval_s3 pass
EVAL_MIN_BATCHES = 100     # keeps ten batch times beyond the p90
INSIDE_V_SLACK = 1e-12     # psi >= raw - slack*(1+|raw|) inside V
REFERENCE_RTOL = 1e-9

WORKLOADS = tuple(VERIFY_PASSES) + ("eval_s3",)


def report_key(sid: str, overrides: dict) -> str:
    return sid + "".join(f" {k}={v:g}" for k, v in sorted(overrides.items()))


def report_bytes(report: dict) -> bytes:
    """The bytes `coversmooth run` writes for a report."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


class Tally:
    """Gated outputs attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


# ---------------------------------------------------------------------------
# verify workloads

class VerifyWorkload:
    """One pass builds and gates the workload's reports, in a fixed order.

    The scenarios are frozen, so a pass does not depend on the seed.
    """

    def __init__(self, name: str):
        frozen = json.loads((BENCH / "data" / "verify_checks.json").read_text())
        self.built = []
        for sid, overrides in VERIFY_PASSES[name]:
            key = report_key(sid, overrides)
            self.built.append((key, scenarios.build_scenario(sid, overrides),
                               frozen[key]))
        self.points_per_pass = sum(f["levi_nodes"] for _, _, f in self.built)

    def run_pass(self, timings=None):
        """Build every report; returns (seconds, outputs)."""
        reports = []
        t0 = time.perf_counter()
        for key, scen, _ in self.built:
            try:
                reports.append(scenarios.run_scenario(scen, timings=timings))
            except Exception:  # counted as failed checks by gate()
                traceback.print_exc()
                reports.append(None)
        return time.perf_counter() - t0, reports

    def gate(self, reports, tally: Tally) -> None:
        """Names, kinds and verdicts must equal the frozen list, and each
        verdict must re-derive from its value with check_passes."""
        for (_, _, frozen), report in zip(self.built, reports):
            expected = frozen["checks"]
            checks = report["checks"] if report is not None else []
            good = sum(1 for want, c in zip(expected, checks)
                       if [c["name"], c.get("kind"), c["pass"]] == want
                       and scenarios.check_passes(c) == c["pass"])
            total = max(len(expected), len(checks))
            tally.add(total, total - good)

    @staticmethod
    def same(a, b) -> bool:
        return [report_bytes(r) if r else None for r in a] == \
               [report_bytes(r) if r else None for r in b]


# ---------------------------------------------------------------------------
# eval_s3

def _chart_box(a, b):
    (lo1, hi1), (lo2, hi2) = a.bbox(), b.bbox()
    return np.maximum(lo1, lo2), np.minimum(hi1, hi2)


class EvalWorkload:
    """Batches of fresh points through the glued smoothed potential of S3.

    Each 4096-point batch holds 2048 points of chart D1 and 2048 of D3,
    drawn from the seed uniformly in W & valid_on of that chart's triple
    (S2-style triples stick out of their chart, so valid_on is explicit).
    """

    def __init__(self, seed: int):
        s = scenarios.build_scenario("S3")
        t0 = time.perf_counter()
        run = smoothing.smooth_pushforward(s.cover, s.upstairs,
                                           s.downstairs_overlaps, s.steps,
                                           s.params, X1=s.X1, X2=s.X2)
        self.pipeline_s = time.perf_counter() - t0
        self.charts = []
        for step in s.steps:
            psi = run.cocycle.chart(step.chart_name).potential
            raw = run.raw.chart(step.chart_name).potential
            self.charts.append((step.chart_name, psi, raw, step.opens.V,
                                step.opens.W))
        self.rng = np.random.default_rng(seed)

    def draw(self, rng, chart, count: int) -> np.ndarray:
        _, psi, _, _, W = chart
        lo, hi = _chart_box(W, psi.valid_on)
        found, got = [], 0
        while got < count:
            X = rng.uniform(lo, hi, size=(2 * count, lo.size))
            Z = X[:, 0::2] + 1j * X[:, 1::2]
            keep = W.contains_many(Z) & psi.valid_on.contains_many(Z)
            found.append(Z[keep])
            got += int(keep.sum())
        return np.concatenate(found)[:count]

    def batches(self, count: int, rng=None):
        rng = self.rng if rng is None else rng
        return [[self.draw(rng, c, EVAL_HALF_BATCH) for c in self.charts]
                for _ in range(count)]

    def run_batch(self, batch):
        """Evaluate one batch; returns (seconds, values per chart or None)."""
        t0 = time.perf_counter()
        try:
            vals = [c[1].eval_many(Z) for c, Z in zip(self.charts, batch)]
        except Exception:  # counted as failed points by gate()
            traceback.print_exc()
            vals = None
        return time.perf_counter() - t0, vals

    def gate(self, batch, vals, tally: Tally) -> int:
        """Finite; psi == raw bit for bit outside V; psi >= raw - slack
        inside V.  Returns the number of batch points inside V."""
        inside = 0
        for chart, Z, v in zip(self.charts, batch, vals or [None] * len(batch)):
            if v is None:
                tally.add(Z.shape[0], Z.shape[0])
                continue
            _, _, raw, V, _ = chart
            r = raw.eval_many(Z)
            inV = V.contains_many(Z)
            ok = np.isfinite(v) & np.where(
                inV, v >= r - INSIDE_V_SLACK * (1.0 + np.abs(r)), v == r)
            tally.add(Z.shape[0], np.count_nonzero(~ok))
            inside += int(np.count_nonzero(inV))
        return inside

    def gate_reference(self, tally: Tally) -> None:
        """Frozen points and values: must match within REFERENCE_RTOL."""
        ref = json.loads((BENCH / "data" / "eval_s3_reference.json").read_text())
        for chart in self.charts:
            pts = np.array(ref[chart[0]]["points"])
            want = np.array(ref[chart[0]]["values"])
            Z = pts[:, 0::2] + 1j * pts[:, 1::2]
            try:
                got = chart[1].eval_many(Z)
            except Exception:
                traceback.print_exc()
                tally.add(want.size, want.size)
                continue
            ok = np.isclose(got, want, rtol=REFERENCE_RTOL, atol=0.0)
            tally.add(want.size, np.count_nonzero(~ok))

    @staticmethod
    def same(a, b) -> bool:
        return all(x is not None and y is not None
                   and all(np.array_equal(p, q) for p, q in zip(x, y))
                   for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# modes

def setup(workload: str, seed: int):
    if workload == "eval_s3":
        return EvalWorkload(seed)
    return VerifyWorkload(workload)


def measure(wl, seconds: float) -> dict:
    tally = Tally()
    units_ms, passes_s, points, timed_s = [], [], 0, 0.0
    inside = 0
    t_start = time.perf_counter()
    if isinstance(wl, EvalWorkload):
        wl.gate_reference(tally)
        passes = 0
        while (time.perf_counter() - t_start < seconds
               or passes * EVAL_PASS_BATCHES < EVAL_MIN_BATCHES):
            pass_s, ok = 0.0, True
            for batch in wl.batches(EVAL_PASS_BATCHES):
                sec, vals = wl.run_batch(batch)
                inside += wl.gate(batch, vals, tally)
                pass_s += sec
                ok = ok and vals is not None
                if vals is not None:  # else no latency sample
                    units_ms.append(sec * 1e3)
                    points += sum(Z.shape[0] for Z in batch)
                    timed_s += sec
            passes += 1
            if ok:
                passes_s.append(pass_s)
    else:
        passes = 0
        while not passes or time.perf_counter() - t_start < seconds:
            sec, reports = wl.run_pass()
            wl.gate(reports, tally)
            passes += 1
            if all(r is not None for r in reports):  # else no latency sample
                passes_s.append(sec)
                units_ms.append(sec * 1e3)
                points += wl.points_per_pass
                timed_s += sec
    return {"units_ms": units_ms, "passes_s": passes_s, "points": points,
            "timed_s": timed_s, "attempted": tally.attempted,
            "failed": tally.failed, "inside_v": inside}


def trace_run(wl, workload: str, seed: int) -> dict:
    """Set-up and one pass of fixed work, untraced and then traced.

    The set-up that preceded READY was the warm-up, so both timed runs
    start warm and their difference is the tracing overhead.
    """
    tally = Tally()
    timings = {}
    is_eval = isinstance(wl, EvalWorkload)
    if is_eval:
        # drawn before the tracer is installed, so drawing them is charged
        # to no layer
        batches = wl.batches(EVAL_PASS_BATCHES, np.random.default_rng(seed))

        def one_pass(w, timings=None):
            return [w.run_batch(b)[1] for b in batches]
    else:
        def one_pass(w, timings=None):
            return w.run_pass(timings)[1]

    t0 = time.perf_counter()
    plain_wl = setup(workload, seed)
    plain = one_pass(plain_wl, timings)
    untraced_s = time.perf_counter() - t0
    if is_eval:
        for batch, vals in zip(batches, plain):
            plain_wl.gate(batch, vals, tally)
        timings = {"pipeline": plain_wl.pipeline_s}
    else:
        plain_wl.gate(plain, tally)

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        with tracer.span("bench.pass"):
            again = setup(workload, seed)
            traced = one_pass(again)
    traced_s = time.perf_counter() - t0
    same = plain_wl.same(plain, traced)
    if not same:
        print("trace: traced outputs differ from untraced ones", file=sys.stderr)
        tally.failed = tally.attempted
    layers = tracer.metrics()
    layers.update(stage_metrics(timings))
    layers["trace.overhead_s"] = traced_s - untraced_s
    return {"layers": layers, "attempted": tally.attempted,
            "failed": tally.failed, "identical": same,
            "reached": sorted(tracer.reached), "wrapped": sorted(tracer.wrapped)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    default="measure")
    args = ap.parse_args(argv)

    wl = setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "trace":
        out = trace_run(wl, args.workload, args.seed)
    else:
        out = measure(wl, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
