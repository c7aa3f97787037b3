"""Print the process's peak resident set size after each check stage.

    python3 scripts/stage_rss.py SCENARIO [SCENARIO ...] [--h H]

Runs the scenarios (S1..S4, optionally at another battery spacing h) in
the order given, twice in this interpreter: a cold round and then a warm
round of the same runs, as a benchmark worker runs its pass again and
again (verify_n1 is S1 then S4).  It prints one line per stage as it
ends: the round, the scenario, the stage (the timing keys of
run_scenario: the cocycle check, the pipeline, each check, total) and
ru_maxrss in MB.  ru_maxrss is a high-water mark, so the stage where it
rises is where the peak sits; in the warm round it rises only where that
round needs more than the cold one did, such as a later scenario that
finds memory an earlier one left behind.  The package is imported from
the src/ directory next to this script.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coversmooth.scenarios import SCENARIO_IDS, build_scenario, run_scenario  # noqa: E402

# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
_RSS_UNIT = 1.0 if sys.platform == "darwin" else 1024.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT / 2.0 ** 20


class StageLog(dict):
    """A timings dict that prints the peak RSS each time a stage is noted."""

    def __init__(self, run: str, scenario: str):
        super().__init__()
        self.run, self.scenario = run, scenario

    def __setitem__(self, stage, seconds):
        super().__setitem__(stage, seconds)
        print(f"{self.run:<5} {self.scenario:<8} {stage:<34} {peak_rss_mb():8.1f}",
              flush=True)


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenarios", nargs="+", choices=SCENARIO_IDS, metavar="SCENARIO")
    ap.add_argument("--h", type=float, default=None)
    args = ap.parse_args(argv)
    overrides = {} if args.h is None else {"h": args.h}
    print(f"{'run':<5} {'scenario':<8} {'stage':<34} {'maxrss_mb':>8}")
    print(f"{'start':<5} {'-':<8} {'imports':<34} {peak_rss_mb():8.1f}")
    for run in ("cold", "warm"):
        for sid in args.scenarios:
            run_scenario(build_scenario(sid, overrides), timings=StageLog(run, sid))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
