"""scripts/make_demo_fixture.py: the bundled demo fixture regenerates."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "scripts", "make_demo_fixture.py")
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "demo")


def test_regenerates_the_fixture_data_files_byte_for_byte(tmp_path):
    subprocess.run([sys.executable, SCRIPT, "--out", str(tmp_path)],
                   capture_output=True, text=True, timeout=120, check=True)
    for name in ("design.csv", "observations.csv", "pattern.csv",
                 "covariate.asc"):
        with open(os.path.join(FIXTURE, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
