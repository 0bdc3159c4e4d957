"""Time the study's set-up layers on larger grids and designs.

Size k takes the default study's grid at resolution 0.01 / k (10k, 40k and
160k cells for k = 1, 2, 4) and its design with both lattices scaled by k
per side, radii and jitter divided by k (80, 320 and 1,280 units). Per size
the script prints one JSON line: the median seconds of ``simulate_grf``,
``build_study_design`` (the jittered lattice and ``_repair_overlaps``),
``_repair_overlaps`` alone, ``check_nonoverlap``, ``build_partitions`` and
the fused-distance prepare of one simulated dataset (its design tables
already built) over a few repeats, that prepare's count of line-support
entries, and the peak RSS of the process that ran that size.
Each size runs in a fresh process, with one BLAS thread:

    python3 scripts/scale_probe.py                 # sizes 1 2 4
    python3 scripts/scale_probe.py --sizes 1 --repeats 1
    python3 scripts/scale_probe.py --src ../other/src

The three sizes take 7-10 s in all with the per-pair set-up code that the
array passes replaced, and under 3 s with them (2-core machine).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def scaled_design(fs, seed, factor):
    """``build_study_design(seed)``'s lattices before the repair, with
    ``factor`` times the points and traps per side and radii and jitter
    divided by ``factor``; factor 1 draws the same jitter."""
    import numpy as np

    experiment, geometry = fs.experiment, fs.geometry
    rng = np.random.default_rng(seed)
    jitter = experiment._JITTER / factor
    units = []
    for prefix, kind, nx, ny, radius in (
            ("p", "point", 5, 3, experiment.POINT_RADIUS),
            ("t", "trap", 13, 5, experiment.TRAP_RADIUS)):
        nx, ny, k = nx * factor, ny * factor, 0
        for y in (np.arange(ny) + 0.5) / ny:
            for x in (np.arange(nx) + 0.5) / nx:
                loc = np.array([x, y]) + rng.uniform(-jitter, jitter, 2)
                units.append(geometry.SampledRegion(
                    geometry.SurveyUnit(f"{prefix}{k:02d}", kind, loc),
                    radius / factor))
                k += 1
    return geometry.SurveyDesign(tuple(units))


def fused_distance_specs(fs, config, field, design, seed, repeats):
    """``repeats`` unprepared fused-distance specs of one dataset drawn on
    ``field`` and ``design``, with the design tables that they share
    already built."""
    import numpy as np

    pp, lk = fs.pointprocess, fs.likelihoods
    rng = np.random.default_rng(seed)
    pattern = pp.simulate_ippp(config.truth, field, config.region, rng)
    partial = pp.degrade_to_partial(
        pp.simulate_observation(pattern, design, config.truth, rng))
    lk.design_tables(design, field, config.region, config.quadrature,
                     scenarios=(lk.SCENARIO_FUSED_DISTANCE,))
    return [lk.LikelihoodSpec(lk.SCENARIO_FUSED_DISTANCE, design, field,
                              obs=partial, region=config.region,
                              quadrature=config.quadrature)
            for _ in range(repeats)]


def _median_seconds(call, repeats):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def probe(fs, size, repeats, seed=1):
    """The set-up layers' median seconds at one size, as a dict."""
    config = fs.experiment.StudyConfig(replicates=1)
    resolution = config.grid_resolution / size
    grf_s, field = _median_seconds(
        lambda: fs.covariates.simulate_grf(config.region, config.gp,
                                           resolution), repeats)
    lattice = scaled_design(fs, seed, size)
    design_s, design = _median_seconds(
        lambda: fs.experiment._repair_overlaps(scaled_design(fs, seed, size)),
        repeats)
    repair_s, _ = _median_seconds(
        lambda: fs.experiment._repair_overlaps(lattice), repeats)
    check_s, (ok, _) = _median_seconds(
        lambda: fs.geometry.check_nonoverlap(design), repeats)
    partitions_s, _ = _median_seconds(
        lambda: fs.geometry.build_partitions(
            config.region, config.partitions_nx, config.partitions_ny,
            design), repeats)
    specs = fused_distance_specs(fs, config, field, design, seed, repeats)
    prepare_s, prepared = _median_seconds(lambda: specs.pop().prepared(),
                                          repeats)
    return {"size": size, "cells": field.n_cells,
            "units": len(design.regions), "nonoverlapping": ok,
            "simulate_grf_s": grf_s, "build_study_design_s": design_s,
            "repair_overlaps_s": repair_s, "check_nonoverlap_s": check_s,
            "build_partitions_s": partitions_s,
            "fused_distance_prepare_s": prepare_s,
            "line_entries": len(prepared.undetected.cell),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=(1, 2, 4))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory of the checkout to probe")
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if min(args.sizes) < 1 or args.repeats < 1:
        ap.error("sizes and repeats must be at least 1")
    if not args.one:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        for size in args.sizes:
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one",
                 "--sizes", str(size), "--repeats", str(args.repeats),
                 "--src", args.src], env=env, check=True)
        return 0
    sys.path.insert(0, os.path.abspath(args.src))
    import fusedsdm.covariates
    import fusedsdm.experiment
    import fusedsdm.geometry
    import fusedsdm.likelihoods
    import fusedsdm.pointprocess

    print(json.dumps(probe(fusedsdm, args.sizes[0], args.repeats)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
