"""coversmooth benchmark: one workload, one seed, one summary line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/``.  Workers run one at a time, each a fresh interpreter with BLAS
and OpenMP threads capped at the usable core count:

* ``--trace 0``: one untimed warm-up process, then fresh processes timed
  from start to the end of set-up (``setup_s`` is their median; at least
  SETUP_SAMPLES[0], more while they add up to under SETUP_SECONDS); one
  more goes on from set-up to measure for ``--seconds`` and gates every
  output.  Prints every end-to-end metric.
* ``--trace 1``: one worker runs a fixed amount of work untraced and again
  traced, and prints the per-layer metrics.

The last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.  An exception inside a
pass counts as failed outputs and the summary is still printed; a checkout
where the package cannot even be set up exits 1 without a summary.
See README.md for the workloads, the metrics and the seed semantics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify_s3", "verify_n1", "eval_s3")
SETUP_SAMPLES = (5, 15)     # fresh set-up processes per run: min, max
SETUP_SECONDS = 3.0         # keep sampling below the max until this much
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "report_s": "s", "points_per_s": "1/s",
    "batch_ms_p50": "ms", "batch_ms_p90": "ms", "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


class SetupFailed(Exception):
    """The package could not be set up: no summary can be produced."""


class Worker:
    """One worker process; its stdout lines arrive through a reader thread,
    stamped with the time they were read."""

    def __init__(self, args, mode: str, env: dict):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=str(ROOT))
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix: str, deadline: float):
        """(read time, rest of line) for the first line starting with prefix,
        or (None, None) if the worker ends or the deadline passes first."""
        while True:
            try:
                stamp, line = self.lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                return None, None
            if line is None:
                return None, None
            if line.startswith(prefix):
                return stamp, line[len(prefix):]
            print(line)

    def stop(self) -> int:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        return self.proc.returncode


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    cap = usable_cores()
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cap):
            env[var] = str(cap)
    return env


def environment(args, env: dict) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": usable_cores(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_thread_cap": int(env["OPENBLAS_NUM_THREADS"]),
            "cpu_model": cpu}


def timed_setup(args, env: dict, deadline: float, mode: str = "setup"):
    """Start a worker and wait for READY; returns (worker, setup seconds)."""
    w = Worker(args, mode, env)
    stamp, _ = w.expect("READY", deadline)
    if stamp is None:
        w.proc.kill()
        code = w.stop()
        raise SetupFailed(f"worker set-up did not finish (exit code {code})")
    return w, stamp - w.started


def finish(w: Worker, deadline: float):
    """The worker's RESULT payload, or None if it died or ran out of time."""
    stamp, payload = w.expect("RESULT ", deadline)
    if stamp is None:
        w.proc.kill()
    code = w.stop()
    if stamp is None or code != 0:
        print(f"worker ended without a result (exit code {code})",
              file=sys.stderr)
        return None
    return json.loads(payload)


def measure(args, env: dict, deadline: float):
    setup = []
    warm, _ = timed_setup(args, env, deadline)
    warm.stop()
    while len(setup) < SETUP_SAMPLES[1] - 1 and (
            len(setup) < SETUP_SAMPLES[0] - 1 or sum(setup) < SETUP_SECONDS):
        w, sec = timed_setup(args, env, deadline)
        w.stop()
        setup.append(sec)
    w, sec = timed_setup(args, env, deadline, mode="measure")
    setup.append(sec)
    res = finish(w, deadline)

    metrics = {"setup_s": statistics.median(setup)}
    if res is None:
        return False, 1, 1, metrics
    units = res["units_ms"]
    if res["passes_s"]:  # a pass with an exception is no latency sample
        metrics["report_s"] = statistics.median(res["passes_s"])
    if units:
        metrics["points_per_s"] = res["points"] / res["timed_s"]
        metrics["batch_ms_p50"] = statistics.median(units)
        # the p90 only with ten samples beyond it; otherwise the slowest unit
        metrics["batch_ms_p90"] = (statistics.quantiles(units, n=10,
                                                        method="inclusive")[8]
                                   if len(units) >= 100 else max(units))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    attempted, failed = res["attempted"], res["failed"]
    metrics["pass_share"] = (attempted - failed) / max(attempted, 1)
    print(f"setup: {len(setup)} fresh processes, "
          + ", ".join(f"{s:.4f}" for s in setup) + " s")
    print(f"timed: {len(res['passes_s'])} passes, {len(units)} units "
          f"(batch_ms_p90 is {'the p90' if len(units) >= 100 else 'the max'}), "
          f"{res['points']} points in {res['timed_s']:.3f} s timed")
    if args.workload == "eval_s3":
        print(f"eval_s3: {res['inside_v']} of {res['points']} batch points "
              "inside V")
    return failed == 0, attempted, failed, metrics


def trace(args, env: dict, deadline: float):
    w, _ = timed_setup(args, env, deadline, mode="trace")
    res = finish(w, deadline)
    if res is None:
        return False, 1, 1, {}
    print(f"trace: {len(res['reached'])} of {len(res['wrapped'])} wrapped "
          f"sites reached; traced outputs identical: {res['identical']}")
    return (res["failed"] == 0 and res["identical"], res["attempted"],
            res["failed"], res["layers"])


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coversmooth" / "__init__.py").is_file():
        print(f"error: no coversmooth package under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env()
    print("env " + json.dumps(environment(args, env)))
    try:
        if args.trace:
            correct, attempted, failed, values = trace(args, env, deadline)
            units = per_layer_units()
        else:
            correct, attempted, failed, values = measure(args, env, deadline)
            units = END_TO_END_UNITS
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
