"""Regenerate the bundled transect + mist-net demo dataset.

Writes design.csv, covariate.asc, observations.csv, pattern.csv, and the
simulate config under tests/fixtures/demo/, or under ``--out``.
Deterministic. The default paths in the config and the run manifest are
relative to the repository root, so the config runs from there:

    python3 scripts/make_demo_fixture.py
    fusedsdm simulate --config tests/fixtures/demo/simulate_config.json \
        --out /tmp/sim
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fusedsdm.cli import main  # noqa: E402
from fusedsdm.geometry import (  # noqa: E402
    SampledRegion,
    SurveyDesign,
    SurveyUnit,
    check_nonoverlap,
    save_design,
)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
OUT = os.path.join("tests", "fixtures", "demo")

TRANSECT_HALF_WIDTH = 0.06
TRAP_RADIUS = 0.045

# Transect rows and mist-net rows alternate so each 0.3 x 0.4 analysis
# partition holds one piece of each survey type.
TRANSECT_ROWS = (0.10, 0.50)
NET_ROWS = (0.30, 0.70)


def build_design() -> SurveyDesign:
    regions = []
    k = 0
    for y in TRANSECT_ROWS:
        for x0 in (0.05, 0.45, 0.85):
            verts = np.array([[x0, y], [x0 + 0.26, y]])
            regions.append(SampledRegion(
                SurveyUnit(f"tr{k:02d}", "transect", verts),
                TRANSECT_HALF_WIDTH))
            k += 1
    k = 0
    for y in NET_ROWS:
        for i in range(12):
            x = 0.08 + i * 0.10
            regions.append(SampledRegion(
                SurveyUnit(f"net{k:02d}", "trap", np.array([x, y])),
                TRAP_RADIUS))
            k += 1
    design = SurveyDesign(tuple(regions))
    ok, pairs = check_nonoverlap(design)
    if not ok:
        raise SystemExit(f"demo design overlaps: {pairs}")
    return design


def run(out: str = OUT) -> None:
    # A given directory is taken from the caller's; the default stays
    # relative to the repository root.
    out = OUT if out == OUT else os.path.abspath(out)
    os.chdir(ROOT)
    os.makedirs(out, exist_ok=True)
    design_path = os.path.join(out, "design.csv")
    save_design(build_design(), design_path)
    config = {
        "design": design_path,
        "region": [0.0, 0.0, 1.2, 0.8],
        "gp": {"n_knots": 7, "kernel_range": 0.3, "marginal_sd": 1.0,
               "seed": 55},
        "grid_resolution": 0.02,
        "truth": {"beta": [6.2, 0.8], "phi": 0.002, "theta": 0.85},
        "seed": 314,
        "out": out,
    }
    config_path = os.path.join(out, "simulate_config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    code = main(["simulate", "--config", config_path])
    if code != 0:
        raise SystemExit(f"simulate failed with exit code {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=OUT,
                        help="directory to write the fixture into (default: "
                             "%(default)s, relative to the repository root)")
    run(parser.parse_args().out)
