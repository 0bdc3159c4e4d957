"""Print the exact bits of every scenario log-likelihood on a fixed grid.

Builds the five LikelihoodSpecs for replicate 0 of the default study and
for the bundled demo fixture, evaluates ``loglik`` at a fixed grid of
working points (including extreme log phi and logit theta) and prints one
``float.hex()`` per line. Then it prints the value, gradient and Hessian
of ``loglik_derivatives`` at 16 RateParams points, with the detection rate
eta = 1/phi from 0 (phi = inf) to 1e6, one number per line.

Two checkouts are compared to a tolerance, not to the bit: a change that
only reorders or merges the terms of a sum moves the last digits. With
``--against`` the script compares its values with an earlier output and
prints how many differ and the largest relative difference. It exits with
status 1 when that exceeds 1e-12 or when the two outputs list different
points:

    python3 scripts/loglik_fingerprint.py --src ../other/src > before.txt
    python3 scripts/loglik_fingerprint.py --against before.txt

Reruns of one checkout still print identical bits, so ``cmp`` of two
outputs tests byte-determinism. It takes a few seconds on one core.
"""

import argparse
import itertools
import math
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

BETA0 = (-5.0, 8.8, 9.2, 12.0)
BETA1 = (-0.5, 1.0, 2.5)
LOG_PHI = (-800.0, -700.0, math.log(0.01), math.log(0.025), 7.4, 800.0)
LOGIT_THETA = (-40.0, -1.4, 0.0, 2.0, 40.0)
TOLERANCE = 1e-12
# The derivative points: beta1 = 1 and these beta0, eta and logit theta.
D_BETA0 = (8.8, 12.0)
D_ETA = (0.0, 40.0, 100.0, 1e6)
D_LOGIT_THETA = (-1.4, 2.0)


def grid(WorkingParams, shift):
    """The 4 x 3 x 6 x 5 = 360-point product grid, beta0 shifted to the
    dataset's scale."""
    for b0, b1, lp, lt in itertools.product(BETA0, BETA1, LOG_PHI, LOGIT_THETA):
        yield WorkingParams(np.array([b0 + shift, b1]), lp, lt)


def derivative_grid(RateParams, shift):
    """The 2 x 4 x 2 = 16 derivative points, beta0 shifted as in ``grid``."""
    for b0, eta, lt in itertools.product(D_BETA0, D_ETA, D_LOGIT_THETA):
        yield RateParams(np.array([b0 + shift, 1.0]), eta, lt)


def study_specs(fs):
    config = fs.experiment.StudyConfig(replicates=1)
    field = fs.covariates.simulate_grf(config.region, config.gp,
                                       config.grid_resolution)
    partitions = fs.geometry.build_partitions(
        config.region, config.partitions_nx, config.partitions_ny,
        config.design)
    rng = np.random.default_rng(config.root_seed ^ 0)
    pattern = fs.pointprocess.simulate_ippp(config.truth, field,
                                            config.region, rng)
    obs = fs.pointprocess.simulate_observation(pattern, config.design,
                                               config.truth, rng)
    partial = fs.pointprocess.degrade_to_partial(obs)
    counts = fs.pointprocess.aggregate_counts(partial, partitions,
                                              config.design)
    return {s: fs.experiment._build_spec(s, config.design, field,
                                         config.region, partitions,
                                         config.quadrature, obs, partial,
                                         counts)
            for s in fs.likelihoods.SCENARIO_ORDER}


def demo_specs(fs):
    demo = os.path.join(ROOT, "tests", "fixtures", "demo")
    design = fs.geometry.load_design(os.path.join(demo, "design.csv"))
    field = fs.covariates.ingest_raster([os.path.join(demo, "covariate.asc")])
    region = fs.covariates.region_of(field)
    obs = fs.pointprocess.load_observations(
        os.path.join(demo, "observations.csv"))
    partitions = fs.geometry.build_partitions(region, 4, 2, design)
    counts = fs.pointprocess.aggregate_counts(obs, partitions, design)
    quad = fs.likelihoods.QuadratureSettings()
    return {s: fs.experiment._build_spec(s, design, field, region, partitions,
                                         quad, obs, obs, counts)
            for s in fs.likelihoods.SCENARIO_ORDER}


def fingerprint(fs):
    """The output lines: ``dataset scenario point value`` for ``loglik``,
    then ``dataset scenario dpoint quantity value`` for the derivatives,
    the quantity ``value``, ``grad<i>`` or ``hess<i>.<j>``."""
    lk = fs.likelihoods
    for name, specs, shift in (("demo", demo_specs(fs), -3.0),
                               ("study-rep0", study_specs(fs), 0.0)):
        for scenario, spec in specs.items():
            for i, wp in enumerate(grid(lk.WorkingParams, shift)):
                yield f"{name} {scenario} {i} {float(lk.loglik(wp, spec)).hex()}"
            for i, rp in enumerate(derivative_grid(lk.RateParams, shift)):
                value, grad, hess = lk.loglik_derivatives(rp, spec)
                head = f"{name} {scenario} d{i}"
                yield f"{head} value {float(value).hex()}"
                for j, g in enumerate(grad):
                    yield f"{head} grad{j} {float(g).hex()}"
                for (j, l), h in np.ndenumerate(hess):
                    yield f"{head} hess{j}.{l} {float(h).hex()}"


def _values(lines):
    return dict(line.rsplit(" ", 1) for line in lines if line.strip())


def compare(lines, path) -> int:
    """Print how ``lines`` differ from the output in ``path``; the exit
    status is 1 past the tolerance."""
    now = _values(lines)
    with open(path) as f:
        before = _values(f.read().splitlines())
    if now.keys() != before.keys():
        print(f"the outputs list different points: {len(now)} here, "
              f"{len(before)} in {path}")
        return 1
    differ, worst = 0, 0.0
    for key, value in now.items():
        if value == before[key]:
            continue
        differ += 1
        a, b = float.fromhex(value), float.fromhex(before[key])
        worst = max(worst, abs(a - b) / max(abs(a), abs(b))
                    if math.isfinite(a) and math.isfinite(b) else math.inf)
    print(f"{differ} of {len(now)} values differ from {path}; largest "
          f"relative difference {worst:.3g} (tolerance {TOLERANCE:g})")
    return 1 if worst > TOLERANCE else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the fusedsdm package")
    ap.add_argument("--against", metavar="FILE",
                    help="compare with an earlier output instead of printing")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import fusedsdm.covariates
    import fusedsdm.experiment
    import fusedsdm.geometry
    import fusedsdm.likelihoods
    import fusedsdm.pointprocess

    lines = fingerprint(fusedsdm)
    if args.against:
        return compare(lines, args.against)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
