"""scripts/scale_probe.py: the set-up layers' seconds at larger sizes."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "scale_probe.py")


def test_smallest_size_prints_one_json_line():
    run = subprocess.run(
        [sys.executable, SCRIPT, "--sizes", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["size"], record["cells"], record["units"]) == (1, 10000, 80)
    assert record["nonoverlapping"] is True
    for key in ("simulate_grf_s", "build_study_design_s", "repair_overlaps_s",
                "check_nonoverlap_s", "build_partitions_s",
                "fused_distance_prepare_s", "line_entries", "peak_rss_mb"):
        assert record[key] > 0, key
    assert isinstance(record["line_entries"], int)
