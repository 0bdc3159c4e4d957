"""scripts/fit_counts.py: the likelihood calls of the default study's fits
and the seconds they take."""

import json
import os
import subprocess
import sys

from fusedsdm.likelihoods import SCENARIO_ORDER

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "fit_counts.py")


def test_one_replicate_prints_one_json_line_per_scenario():
    run = subprocess.run(
        [sys.executable, SCRIPT, "--replicates", "1",
         "--grid-resolution", "0.05"],
        capture_output=True, text=True, timeout=120, check=True)
    records = [json.loads(line) for line in run.stdout.splitlines()]
    assert [r["scenario"] for r in records] == list(SCENARIO_ORDER)
    for r in records:
        assert r["fits"] == 1 and sum(r["status"].values()) == 1
        # One derivative call per Newton iteration, at least one value call
        # per run, and the covariance's 33 central differences of four
        # coordinates plus the reported point's value.
        assert r["loglik_derivatives"] >= r["iterations"] >= 2
        assert r["loglik_terms"] >= 2
        assert r["loglik"] == 34
        # Wall seconds spent in each wrapped name, summed over its calls.
        assert set(r["seconds"]) == {"loglik_derivatives", "loglik_terms",
                                     "loglik"}
        assert all(s > 0 for s in r["seconds"].values())
