"""Replication harness for the five-scenario simulation study.

One covariate field is drawn once and held fixed; each replicate simulates
a point pattern and both observation processes, degrades or aggregates per
scenario, fits all five models, and records estimates, standard errors,
and confidence intervals. Summaries report empirical coverage of the 95%
intervals and relative efficiency against the complete-data benchmark.

Replicates are independent given seeds derived as root_seed XOR replicate
index, so reports are byte-identical across worker counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from . import __version__
from .covariates import CovariateField, GPConfig, simulate_grf
from .errors import ConfigError
from .estimation import FitSettings, abundance, fit
from .geometry import (
    PartitionGrid,
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    _write_csv,
    build_partitions,
    check_nonoverlap,
    overlap_pairs,
)
from .likelihoods import (
    SCENARIO_COMPLETE,
    SCENARIO_COS,
    SCENARIO_FARR,
    SCENARIO_ORDER,
    LikelihoodSpec,
    QuadratureSettings,
    design_tables,
)
from .pointprocess import (
    ModelParams,
    aggregate_counts,
    degrade_to_partial,
    simulate_ippp,
    simulate_observation,
)

POINT_RADIUS = 0.04
TRAP_RADIUS = 0.02
# Half-width of the uniform jitter of each lattice location.
_JITTER = 0.002
# Sweeps of _repair_overlaps before it gives up.
_REPAIR_SWEEPS = 50


def build_study_design(seed: int = 0,
                       region: StudyRegion | None = None) -> SurveyDesign:
    """15 survey points and 65 traps on the bounding box of ``region``
    (default the unit square).

    Points sit on a 5x3 lattice (radius 0.04) and traps on a 13x5 lattice
    (radius 0.02): lattice point i of n along an axis lies at
    ``min + extent * (i + 0.5) / n``, jittered uniformly by ±0.002 from the
    seed. On the unit square both middle rows lie at y = 0.5, where the
    lattices alone put 7 point-trap pairs (p05-t27 through p09-t37) closer
    than the 0.06 that keeps their regions disjoint, whatever the seed; the
    jitter can add an eighth (p09-t38 for seed 3). So the repair pass,
    which pushes overlapping pairs apart within the box, is part of the
    design: it moves 14, 15 and 14 units for seeds 0, 1 and 2.
    """
    box = (region or StudyRegion.unit_square()).bbox()
    rng = np.random.default_rng(seed)
    units = []
    for prefix, kind, nx, ny, radius in (("p", "point", 5, 3, POINT_RADIUS),
                                         ("t", "trap", 13, 5, TRAP_RADIUS)):
        k = 0
        for y in _lattice(box[1], box[3], ny):
            for x in _lattice(box[0], box[2], nx):
                loc = np.array([x, y]) + rng.uniform(-_JITTER, _JITTER, 2)
                units.append(SampledRegion(
                    SurveyUnit(f"{prefix}{k:02d}", kind, loc), radius))
                k += 1
    design = SurveyDesign(tuple(units))
    return _repair_overlaps(design, box)


def _lattice(lo: float, hi: float, n: int) -> np.ndarray:
    """n points, one at the middle of each of n equal parts of [lo, hi]."""
    return lo + (hi - lo) * ((np.arange(n) + 0.5) / n)


def _repair_overlaps(design: SurveyDesign,
                     box=(0.0, 0.0, 1.0, 1.0)) -> SurveyDesign:
    """Push apart any overlapping disk pairs along their connecting line,
    keeping every unit in ``box`` = (xmin, ymin, xmax, ymax).

    Each sweep finds the overlapping pairs, then pushes them apart one by
    one in pair order, each from the positions the pushes before it left;
    the regions are rebuilt once, after the last sweep.
    """
    regions = design.regions
    xy = np.array([r.unit.xy for r in regions], dtype=float).reshape(-1, 2)
    radius = np.array([r.radius for r in regions], dtype=float)
    moved = np.zeros(len(regions), dtype=bool)
    lo, hi = np.array(box[:2], dtype=float), np.array(box[2:], dtype=float)
    for _ in range(_REPAIR_SWEEPS):
        pairs = overlap_pairs(xy, radius)
        if not len(pairs[0]):
            return SurveyDesign(tuple(
                SampledRegion(SurveyUnit(r.unit.id, r.unit.kind, xy[k].copy()),
                              r.radius) if moved[k] else r
                for k, r in enumerate(regions)))
        for ia, ib in zip(*(p.tolist() for p in pairs)):
            delta = xy[ib] - xy[ia]
            d = float(np.sqrt((delta ** 2).sum()))
            direction = delta / d if d > 0 else np.array([1.0, 0.0])
            need = (radius[ia] + radius[ib] - d) / 2 + 1e-6
            xy[ia] = np.clip(xy[ia] - need * direction, lo, hi)
            xy[ib] = np.clip(xy[ib] + need * direction, lo, hi)
        moved[pairs[0]] = moved[pairs[1]] = True
    raise ConfigError("could not repair design overlaps")


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of the replication study."""

    truth: ModelParams = dc_field(
        default_factory=lambda: ModelParams(np.array([9.0, 1.0]), 0.025, 0.2))
    region: StudyRegion = dc_field(default_factory=StudyRegion.unit_square)
    design: SurveyDesign | None = None
    gp: GPConfig = dc_field(default_factory=GPConfig)
    grid_resolution: float = 0.01
    partitions_nx: int = 10
    partitions_ny: int = 10
    replicates: int = 200
    root_seed: int = 1
    workers: int = 1
    scenarios: tuple = SCENARIO_ORDER
    quadrature: QuadratureSettings = dc_field(default_factory=QuadratureSettings)
    fit_settings: FitSettings = dc_field(
        default_factory=lambda: FitSettings(n_starts=2))

    def __post_init__(self):
        for name in ("replicates", "root_seed", "workers", "partitions_nx",
                     "partitions_ny"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed}")
        if self.replicates < 1:
            raise ConfigError("need at least one replicate")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        scenarios = self.scenarios
        if not scenarios or len(set(scenarios)) < len(scenarios) or any(
                s not in SCENARIO_ORDER for s in scenarios):
            raise ConfigError(
                f"scenarios must be distinct names out of "
                f"{', '.join(SCENARIO_ORDER)}, got {self.scenarios!r}")
        design = self.design
        if design is None:
            design = build_study_design(self.root_seed, self.region)
            object.__setattr__(self, "design", design)
        ok, pairs = check_nonoverlap(design)
        if not ok:
            raise ConfigError(f"study design has overlapping regions: {pairs}")


PARAM_KEYS = ("beta0", "beta1", "lambda_bar")


@dataclass
class StudyReport:
    truth: dict
    rows: list
    summary: list
    replicates: int
    root_seed: int
    scenarios: tuple


def coverage(cis, truth: float) -> float:
    """Fraction of closed intervals containing the truth."""
    cis = list(cis)
    if not cis:
        raise ConfigError("coverage needs at least one interval")
    hits = sum(1 for lo, hi in cis if lo <= truth <= hi)
    return hits / len(cis)


def relative_efficiency(sd_scenario: float, sd_benchmark: float) -> float:
    if not sd_benchmark > 0:
        raise ConfigError("benchmark standard deviation must be positive")
    return sd_scenario / sd_benchmark


def true_abundance(config: StudyConfig, field: CovariateField) -> float:
    """The fixed abundance implied by the truth on the realized field."""
    return abundance(config.truth, field, config.region)[0]


def _scenario_data(scenario, obs_full, obs_partial, counts,
                   partitions) -> dict:
    """The data arguments of the scenario's ``LikelihoodSpec``."""
    if scenario == SCENARIO_COMPLETE:
        return {"obs": obs_full}
    if scenario in (SCENARIO_FARR, SCENARIO_COS):
        return {"counts": counts, "partitions": partitions}
    return {"obs": obs_partial}


def _build_spec(scenario, design, field, region, partitions, quad,
                obs_full, obs_partial, counts):
    return LikelihoodSpec(scenario=scenario, design=design, field=field,
                          region=region, quadrature=quad,
                          **_scenario_data(scenario, obs_full, obs_partial,
                                           counts, partitions))


def _replicate_rows(config: StudyConfig, field: CovariateField,
                    partitions: PartitionGrid, rep: int) -> list:
    seed = config.root_seed ^ rep
    rng = np.random.default_rng(seed)
    pattern = simulate_ippp(config.truth, field, config.region, rng)
    obs = simulate_observation(pattern, config.design, config.truth, rng)
    partial = degrade_to_partial(obs)
    counts = aggregate_counts(partial, partitions, config.design)

    rows = []
    for scenario in config.scenarios:
        row = {
            "replicate": rep,
            "scenario": scenario,
            "n_ds": obs.n_ds,
            "n_cr": obs.n_cr,
        }
        try:
            spec = _build_spec(scenario, config.design, field, config.region,
                               partitions, config.quadrature, obs, partial,
                               counts)
            result = fit(spec, settings=config.fit_settings)
            if not result.converged:
                row["status"] = "not_converged"
            elif not result.has_covariance:
                row["status"] = "no_covariance"
            else:
                row["status"] = "ok"
            row["message"] = result.message
            row["iterations"] = result.iterations
            row["loglik"] = result.loglik
            row["beta0"] = float(result.params.beta[0])
            row["beta1"] = (float(result.params.beta[1])
                            if len(result.params.beta) > 1 else float("nan"))
            row["log_phi"] = result.working.log_phi
            row["logit_theta"] = result.working.logit_theta
            row["lambda_bar"] = result.abundance.value
            if result.has_covariance:
                row["se_beta0"] = result.se["beta0"]
                row["se_beta1"] = result.se.get("beta1", float("nan"))
                row["se_lambda_bar"] = result.abundance.se
                row["ci_beta0_lo"], row["ci_beta0_hi"] = result.cis["beta0"]
                row["ci_beta1_lo"], row["ci_beta1_hi"] = result.cis.get(
                    "beta1", (float("nan"), float("nan")))
                row["ci_lambda_lo"], row["ci_lambda_hi"] = result.abundance.interval
                (row["ci_log_lambda_lo"],
                 row["ci_log_lambda_hi"]) = result.abundance.log_interval
                row["ci_log_phi_lo"], row["ci_log_phi_hi"] = result.cis["log_phi"]
        except Exception as exc:  # a failed fit must not abort the study
            row["status"] = "error"
            row["message"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


_CSV_COLUMNS = (
    "replicate", "scenario", "status", "n_ds", "n_cr", "beta0", "beta1",
    "log_phi", "logit_theta", "lambda_bar", "se_beta0", "se_beta1",
    "se_lambda_bar", "ci_beta0_lo", "ci_beta0_hi", "ci_beta1_lo",
    "ci_beta1_hi", "ci_lambda_lo", "ci_lambda_hi", "ci_log_lambda_lo",
    "ci_log_lambda_hi", "ci_log_phi_lo", "ci_log_phi_hi", "loglik",
    "iterations", "message",
)


def run_study(config: StudyConfig, field: CovariateField | None = None) -> StudyReport:
    """Simulate, fit, and summarize all scenarios over all replicates.

    The design's quadrature tables are built before any replicate, and
    every spec takes them from ``design_tables``; a design unit whose
    region holds no quadrature node inside the study region raises
    ConfigError here. A pool of workers gets the config, field and
    partitions once per worker: forked workers inherit the built tables,
    others build them once each.
    """
    if field is None:
        field = simulate_grf(config.region, config.gp, config.grid_resolution)
    partitions = build_partitions(config.region, config.partitions_nx,
                                  config.partitions_ny, config.design)
    _study_tables(config, field, partitions)
    reps = range(config.replicates)
    if config.workers > 1:
        # Imported here: it costs every ``import fusedsdm`` about 20 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers,
                                 initializer=_start_worker,
                                 initargs=(config, field, partitions)) as pool:
            chunks = list(pool.map(_worker_rows, reps, chunksize=1))
    else:
        chunks = [_replicate_rows(config, field, partitions, r) for r in reps]
    rows = [row for chunk in chunks for row in chunk]

    lam_truth = true_abundance(config, field)
    truth = {
        "beta0": float(config.truth.beta[0]),
        "beta1": (float(config.truth.beta[1])
                  if len(config.truth.beta) > 1 else float("nan")),
        "lambda_bar": lam_truth,
        "log_lambda_bar": math.log(lam_truth),
        "phi": config.truth.phi,
        "theta": config.truth.theta,
    }
    summary = summarize(rows, truth, config.scenarios)
    return StudyReport(truth=truth, rows=rows, summary=summary,
                       replicates=config.replicates,
                       root_seed=config.root_seed, scenarios=config.scenarios)


def _study_tables(config: StudyConfig, field: CovariateField,
                  partitions: PartitionGrid):
    return design_tables(config.design, field, config.region,
                         config.quadrature, partitions, config.scenarios)


# A pool worker's study inputs, set once by _start_worker.
_worker_study = None


def _start_worker(*study) -> None:
    """Keep the study's (config, field, partitions) and its tables."""
    global _worker_study
    _worker_study = study
    _study_tables(*study)


def _worker_rows(rep: int) -> list:
    return _replicate_rows(*_worker_study, rep)


def summarize(rows: list, truth: dict, scenarios) -> list:
    """Per-scenario mean/sd/coverage/relative-efficiency table.

    Only rows with status "ok" (converged, covariance available) enter the
    statistics; exclusion counts are reported alongside. Relative
    efficiency is a scenario's SD over complete's, whatever the order of
    ``scenarios``; NaN without complete or a positive SD of complete's.
    """
    def ok_rows(scenario):
        return [r for r in rows
                if r["scenario"] == scenario and r.get("status") == "ok"]

    def sd(ok, key):
        if len(ok) < 2:
            return 0.0 if ok else float("nan")
        return float(np.array([r[key] for r in ok], dtype=float).std(ddof=1))

    bench = ok_rows(SCENARIO_COMPLETE) if SCENARIO_COMPLETE in scenarios \
        else []
    summary = []
    for scenario in scenarios:
        ok = ok_rows(scenario)
        n_rows = sum(r["scenario"] == scenario for r in rows)
        entry = {"scenario": scenario, "n_replicates": n_rows,
                 "n_used": len(ok), "n_excluded": n_rows - len(ok)}
        for key, ci in (("beta0", "beta0"), ("beta1", "beta1"),
                        ("lambda_bar", "lambda")):
            entry[f"{key}_mean"] = float(np.mean([r[key] for r in ok])) \
                if ok else float("nan")
            entry[f"{key}_sd"] = sd(ok, key)
            entry[f"{key}_cp"] = coverage(
                [(r[f"ci_{ci}_lo"], r[f"ci_{ci}_hi"]) for r in ok],
                truth[key]) if ok else float("nan")
            sd_b = sd(bench, key)
            entry[f"{key}_re"] = "" if scenario == SCENARIO_COMPLETE else (
                relative_efficiency(entry[f"{key}_sd"], sd_b)
                if sd_b > 0 and np.isfinite(entry[f"{key}_sd"])
                else float("nan"))
        summary.append(entry)
    return summary


def emit_reports(report: StudyReport, out_dir, manifest: dict | None = None) -> None:
    """Write estimates.csv, summary.csv and boxplot_data.csv, each through
    ``_write_csv``, and run_manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "estimates.csv"), _CSV_COLUMNS,
               ([row.get(c, "") for c in _CSV_COLUMNS] for row in report.rows))

    cols = ["scenario", "n_replicates", "n_used", "n_excluded"]
    for key in PARAM_KEYS:
        cols += [f"{key}_mean", f"{key}_sd", f"{key}_cp", f"{key}_re"]
    _write_csv(os.path.join(out_dir, "summary.csv"), cols,
               ([entry.get(c, "") for c in cols] for entry in report.summary))

    _write_csv(os.path.join(out_dir, "boxplot_data.csv"),
               ("scenario", "parameter", "replicate", "estimate"),
               ((row["scenario"], key, row["replicate"], row[key])
                for row in report.rows
                if row.get("status") in ("ok", "not_converged", "no_covariance")
                for key in PARAM_KEYS if key in row))

    _write_json(os.path.join(out_dir, "run_manifest.json"), {
        "version": __version__,
        "root_seed": report.root_seed,
        "replicates": report.replicates,
        "scenarios": list(report.scenarios),
        "truth": report.truth,
        **(manifest or {}),
    })


def _write_json(path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final line end."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
