"""Write the frozen expectations the benchmark gates against.

    python3 bench/freeze.py

data/verify_checks.json: per report of the verify workloads, the check
names, kinds and verdicts, plus the number of Levi lattice nodes the report
checks (counted by the tracer; it is the point count of ``points_per_s`` on
those workloads).

data/eval_s3_reference.json: REFERENCE_POINTS points per chart drawn with
REFERENCE_SEED the way eval_s3 draws its batches, and the glued smoothed
potential's values there.

Run it only to re-freeze after a change that is meant to alter reports or
values; the gates exist to catch every other change.
"""

from __future__ import annotations

import json

import numpy as np

import worker
from layertrace import Tracer

REFERENCE_SEED = 20050117
REFERENCE_POINTS = 256


def freeze_verify() -> dict:
    out = {}
    for specs in worker.VERIFY_PASSES.values():
        for sid, overrides in specs:
            tracer = Tracer()
            with tracer.installed():
                report = worker.scenarios.run_scenario(
                    worker.scenarios.build_scenario(sid, overrides))
            if not report["pass"]:
                raise SystemExit(f"{sid} {overrides}: report does not pass")
            out[worker.report_key(sid, overrides)] = {
                "checks": [[c["name"], c["kind"], c["pass"]]
                           for c in report["checks"]],
                "levi_nodes": int(tracer.counts["psh.min_levi.nodes"]),
            }
    return out


def freeze_eval() -> dict:
    wl = worker.EvalWorkload(REFERENCE_SEED)
    rng = np.random.default_rng(REFERENCE_SEED)
    out = {"seed": REFERENCE_SEED}
    for chart in wl.charts:
        Z = wl.draw(rng, chart, REFERENCE_POINTS)
        X = np.empty((Z.shape[0], 2 * Z.shape[1]))
        X[:, 0::2], X[:, 1::2] = Z.real, Z.imag
        out[chart[0]] = {"points": X.tolist(),
                         "values": chart[1].eval_many(Z).tolist()}
    return out


def main() -> None:
    data = worker.BENCH / "data"
    data.mkdir(exist_ok=True)
    (data / "eval_s3_reference.json").write_text(
        json.dumps(freeze_eval(), indent=1) + "\n")
    (data / "verify_checks.json").write_text(
        json.dumps(freeze_verify(), indent=1) + "\n")


if __name__ == "__main__":
    main()
