"""Count the likelihood evaluations that the default study's fits make.

Runs the first N replicates of the default study in this process, on one
worker and with the study's own ``fit_settings``, with three names of
``fusedsdm.estimation`` wrapped by counters: ``loglik_derivatives`` (one
call per Newton iteration, plus θ's curvature when θ is held at a bound),
``loglik_terms`` (the Newton search's value calls) and ``loglik`` (the
central-difference covariance and the reported point's value). The package
itself is not changed. Per scenario the script prints one JSON line with the
number of fits, their Newton iterations (``FitResult.iterations``), the
three call counts, the wall seconds spent in each of the three names
(``seconds``, summed over the calls) and the fits' statuses:

    python3 scripts/fit_counts.py                       # 20 replicates
    python3 scripts/fit_counts.py --replicates 2 --grid-resolution 0.05
    python3 scripts/fit_counts.py --src ../other/src

20 replicates take 3-4 s on one core of a 2-core machine.
"""

import argparse
import collections
import json
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
COUNTED = ("loglik_derivatives", "loglik_terms", "loglik")


def count(fs, replicates, grid_resolution=None):
    """Per scenario, a dict of fits, iterations, call counts, seconds and
    statuses."""
    estimation = fs.estimation
    calls = collections.defaultdict(collections.Counter)
    seconds = collections.defaultdict(collections.Counter)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            scenario = args[1].scenario
            calls[scenario][name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[scenario][name] += time.perf_counter() - start
        return wrapper

    grid = {} if grid_resolution is None else {
        "grid_resolution": grid_resolution}
    config = fs.experiment.StudyConfig(replicates=replicates, workers=1,
                                       **grid)
    originals = {name: getattr(estimation, name) for name in COUNTED}
    for name, fn in originals.items():
        setattr(estimation, name, counting(name, fn))
    try:
        report = fs.experiment.run_study(config)
    finally:
        for name, fn in originals.items():
            setattr(estimation, name, fn)

    out = []
    for scenario in config.scenarios:
        rows = [r for r in report.rows if r["scenario"] == scenario]
        out.append({"scenario": scenario, "fits": len(rows),
                    "iterations": sum(r.get("iterations", 0) for r in rows),
                    **{name: calls[scenario][name] for name in COUNTED},
                    "seconds": {name: seconds[scenario][name]
                                for name in COUNTED},
                    "status": dict(sorted(collections.Counter(
                        r["status"] for r in rows).items()))})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--grid-resolution", type=float, default=None,
                    help="the covariate grid's cell size (default: the "
                         "study's)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory of the checkout to count")
    args = ap.parse_args(argv)
    if args.replicates < 1:
        ap.error("replicates must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    import fusedsdm.estimation
    import fusedsdm.experiment

    for record in count(fusedsdm, args.replicates, args.grid_resolution):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
