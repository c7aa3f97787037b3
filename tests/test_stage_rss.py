"""scripts/stage_rss.py: the peak resident set size after each check stage
of a cold and a warm run."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_rss.py"


def test_stage_rss_prints_a_rising_peak_per_stage_of_a_cold_and_a_warm_run():
    proc = subprocess.run([sys.executable, str(SCRIPT), "S1", "--h", "0.02"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["run", "stage", "maxrss_mb"]
    assert lines[1][:2] == ["start", "imports"]
    # S1's timing keys (run_scenario), one per check, as the run notes them
    stages = ["upstairs_cocycle_dev_max", "pipeline", "agreement_outside_N_sup",
              "levi_min_kink_h", "levi_min_kink_h2", "levi_min_band_h",
              "levi_min_band_h2", "c2_ratios", "c2_ratios",
              "mass_conservation", "mass_conservation", "total"]
    body = lines[2:]
    assert [(run, stage) for run, stage, _ in body] == (
        [("cold", s) for s in stages] + [("warm", s) for s in stages])
    peaks = [float(mb) for _, _, mb in lines[1:]]
    assert peaks[0] > 0.0
    assert peaks == sorted(peaks)
