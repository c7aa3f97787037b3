"""scripts/stage_rss.py: the peak resident set size after each check stage
of a cold and a warm round of one or more scenario runs."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_rss.py"

# S1's timing keys (run_scenario), one per check, as the run notes them
_S1_STAGES = ["upstairs_cocycle_dev_max", "pipeline", "agreement_outside_N_sup",
              "levi_min_kink_h", "levi_min_kink_h2", "levi_min_band_h",
              "levi_min_band_h2", "c2_ratios", "c2_ratios",
              "mass_conservation", "mass_conservation", "total"]
_S4_STAGES = ["upstairs_cocycle_dev_max", "pipeline", "overlap_dev_change",
              "overlap_dev_change", "correction_lift_sup",
              "agreement_outside_N_sup_near", "agreement_outside_N_sup_far",
              "levi_min_near_disk_h", "levi_min_near_disk_h2",
              "levi_min_far_ring_h", "levi_min_far_ring_h2", "c2_ratios",
              "c2_ratios", "mass_conservation", "mass_conservation",
              "glue_matches_local_sup", "total"]


def _stage_lines(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args, "--h", "0.02"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["run", "scenario", "stage", "maxrss_mb"]
    assert lines[1][:3] == ["start", "-", "imports"]
    peaks = [float(mb) for *_, mb in lines[1:]]
    assert peaks[0] > 0.0
    assert peaks == sorted(peaks)
    return [tuple(line[:3]) for line in lines[2:]]


def test_stage_rss_prints_a_rising_peak_per_stage_of_a_cold_and_a_warm_run():
    assert _stage_lines("S1") == (
        [("cold", "S1", s) for s in _S1_STAGES] + [("warm", "S1", s) for s in _S1_STAGES])


def test_stage_rss_runs_several_scenarios_in_order_in_each_round():
    # as a verify_n1 worker runs its passes: S1 then S4, and again
    one_round = [("S1", s) for s in _S1_STAGES] + [("S4", s) for s in _S4_STAGES]
    assert _stage_lines("S1", "S4") == (
        [("cold", *r) for r in one_round] + [("warm", *r) for r in one_round])
