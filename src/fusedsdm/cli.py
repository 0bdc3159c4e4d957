"""Command-line interface: simulate, fit, experiment, predict-map.

Settings come from a JSON config file plus flag overrides (flags win).
Each command reads the top-level keys in its row of ``_COMMANDS``; any
other key is a config error. Every command validates its inputs fully
before creating any output file.
Exit codes: 0 ok, 2 config error, 3 data error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .covariates import (
    GPConfig,
    ingest_raster,
    region_of,
    simulate_grf,
    write_raster,
)
from .errors import ConfigError, DataError
from .estimation import FitSettings, fit
from .experiment import (
    StudyConfig,
    _scenario_data,
    _write_json,
    build_study_design,
    emit_reports,
    run_study,
)
from .geometry import (
    StudyRegion,
    build_partitions,
    check_nonoverlap,
    load_design,
    save_design,
)
from .likelihoods import SCENARIO_ORDER, LikelihoodSpec, QuadratureSettings
from .pointprocess import (
    ModelParams,
    aggregate_counts,
    load_observations,
    save_observations,
    save_pattern,
    simulate_ippp,
    simulate_observation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NOCONVERGE = 4


def _load_config(path) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    # A run manifest can be re-fed directly as a config.
    if "config" in cfg and isinstance(cfg["config"], dict):
        cfg = cfg["config"]
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] in (None, ""):
        raise ConfigError(f"missing required setting {key!r}")
    return cfg[key]


def _region_from(cfg: dict) -> StudyRegion:
    bounds = cfg.get("region", [0.0, 0.0, 1.0, 1.0])
    if not isinstance(bounds, list) or len(bounds) != 4:
        raise ConfigError("region must be [xmin, ymin, xmax, ymax]")
    return StudyRegion(*(_number("region", b) for b in bounds))


def _truth_from(cfg: dict) -> ModelParams:
    t = cfg.get("truth")
    if t is None:
        raise ConfigError("missing 'truth' with beta, phi, theta")
    try:
        return ModelParams(
            np.array([_number("truth.beta", b) for b in t["beta"]]),
            _number("truth.phi", t["phi"]), _number("truth.theta", t["theta"]))
    except KeyError as exc:
        raise ConfigError(f"truth is missing {exc}") from exc
    except TypeError as exc:
        raise ConfigError("truth.beta must be a list of numbers") from exc


def _check_known(what: str, given, known) -> None:
    for name in given:
        if name not in known:
            raise ConfigError(f"unknown {what} setting {name!r}; "
                              f"known: {', '.join(known)}")


def _check_paths(cfg: dict) -> None:
    """Refuse a file setting that is not a string; ``raster`` may also be
    a list of strings. A number would reach ``os.path.exists``, which
    takes an integer for a file descriptor."""
    for key in ("out", "design", "raster", "observations", "fit_report"):
        value = cfg.get(key)
        if value is None or isinstance(value, str) or (
                key == "raster" and isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            continue
        kind = "a string or a list of strings" if key == "raster" \
            else "a string"
        raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _number(name: str, value, kind=float):
    """``value`` as ``kind`` if it is a JSON number of that kind (an
    integer for int; an integer or a float for float). A bool, a string or
    a float for an int is a config error, not something to cast."""
    if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)):
        raise ConfigError(f"{name} must be "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return kind(value)


def _seed(cfg: dict) -> int:
    """The config's ``seed``: numpy's generators refuse a negative one."""
    seed = _number("seed", cfg.get("seed", 1), int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _section_from(cfg: dict, key: str, base):
    """The dataclass ``base`` with the fields given in the config section
    ``key`` replaced; every other field keeps its value in ``base``."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    _check_known(key, section, [f.name for f in dataclasses.fields(base)])

    try:
        return dataclasses.replace(base, **{
            name: _number(f"{key}.{name}", value, type(getattr(base, name)))
            for name, value in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} setting: {exc}") from exc


def _partitions_from(cfg: dict) -> tuple[int, int]:
    try:
        nx, ny = cfg.get("partitions", [10, 10])
    except (TypeError, ValueError) as exc:
        raise ConfigError("partitions must be [nx, ny]") from exc
    return _number("partitions", nx, int), _number("partitions", ny, int)


def _gp_from(cfg: dict) -> GPConfig:
    return _section_from(cfg, "gp", GPConfig())


def _quad_from(cfg: dict) -> QuadratureSettings:
    kwargs = {}
    if cfg.get("quad_spacing") is not None:
        kwargs["spacing"] = _number("quad_spacing", cfg["quad_spacing"])
    if cfg.get("quad_mode") is not None:
        kwargs["mode"] = cfg["quad_mode"]
    return QuadratureSettings(**kwargs)


def _design_from(src: str, seed: int, region: StudyRegion):
    """The design file ``src``, or ``study-default``'s lattices laid on
    ``region``."""
    if src == "study-default":
        design = build_study_design(seed, region)
    else:
        if not os.path.exists(src):
            raise ConfigError(f"design file not found: {src}")
        design = load_design(src)
    ok, pairs = check_nonoverlap(design)
    if not ok:
        raise ConfigError(
            f"design fails check_nonoverlap; overlapping region pairs: {pairs}"
        )
    return design


def _field_from(rasters):
    paths = rasters if isinstance(rasters, list) else [rasters]
    for p in paths:
        if not os.path.exists(p):
            raise ConfigError(f"raster file not found: {p}")
    return ingest_raster(paths)


def cmd_simulate(cfg: dict) -> int:
    out_dir = _require(cfg, "out")
    seed = _seed(cfg)
    region = _region_from(cfg)
    truth = _truth_from(cfg)
    design = _design_from(cfg.get("design", "study-default"), seed, region)
    if cfg.get("raster"):
        field = _field_from(cfg["raster"])
    else:
        field = simulate_grf(region, _gp_from(cfg),
                             _number("grid_resolution",
                                     cfg.get("grid_resolution", 0.01)))
    if len(truth.beta) != 1 + field.q:
        raise ConfigError(
            f"truth has {len(truth.beta)} beta coefficients but the field "
            f"provides {field.q} covariates (+1 intercept)"
        )

    rng = np.random.default_rng(seed)
    pattern = simulate_ippp(truth, field, region, rng)
    obs = simulate_observation(pattern, design, truth, rng)

    os.makedirs(out_dir, exist_ok=True)
    save_observations(obs, os.path.join(out_dir, "observations.csv"))
    save_pattern(pattern, os.path.join(out_dir, "pattern.csv"))
    for k in range(field.q):
        name = "covariate.asc" if field.q == 1 else f"covariate{k}.asc"
        write_raster(field, os.path.join(out_dir, name), covariate=k)
    save_design(design, os.path.join(out_dir, "design.csv"))
    _write_manifest(out_dir, "simulate", cfg)
    print(f"simulated N={pattern.n} individuals: "
          f"n_ds={obs.n_ds}, n_cr={obs.n_cr} -> {out_dir}")
    return EXIT_OK


def _spec_from_files(cfg: dict):
    scenario = _require(cfg, "scenario")
    if scenario not in SCENARIO_ORDER:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIO_ORDER)}"
        )
    obs_path = _require(cfg, "observations")
    if not os.path.exists(obs_path):
        raise ConfigError(f"observations file not found: {obs_path}")
    field = _field_from(_require(cfg, "raster"))
    region = region_of(field)
    design = _design_from(_require(cfg, "design"), _seed(cfg), region)
    obs = load_observations(obs_path)
    partitions = build_partitions(region, *_partitions_from(cfg), design)
    counts = aggregate_counts(obs, partitions, design)
    return LikelihoodSpec(scenario=scenario, design=design, field=field,
                          region=region, quadrature=_quad_from(cfg),
                          **_scenario_data(scenario, obs, obs, counts,
                                           partitions))


def cmd_fit(cfg: dict) -> int:
    out_dir = _require(cfg, "out")
    spec = _spec_from_files(cfg)
    result = fit(spec, settings=_section_from(cfg, "fit", FitSettings()))

    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "fit_report.json"), result.report())
    text = _format_fit_table(cfg["scenario"], result)
    with open(os.path.join(out_dir, "fit_report.txt"), "w") as fh:
        fh.write(text)
    _write_manifest(out_dir, "fit", cfg)
    print(text, end="")
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NOCONVERGE
    return EXIT_OK


def _format_fit_table(scenario: str, result) -> str:
    """Estimate and 95% CI width per parameter, one row each."""
    lines = [f"scenario: {scenario}",
             f"converged: {result.converged} ({result.message})",
             f"loglik: {result.loglik:.6f}",
             f"{'parameter':<16}{'estimate':>14}{'ci_width':>14}"]

    def row(name, est, width):
        w = f"{width:.6g}" if width is not None and math.isfinite(width) else "n/a"
        lines.append(f"{name:<16}{est:>14.6g}{w:>14}")

    for i, b in enumerate(result.params.beta):
        width = None
        if result.cis is not None:
            lo, hi = result.cis[f"beta{i}"]
            width = hi - lo
        row(f"beta{i}", float(b), width)
    lam = result.abundance
    if lam is not None and lam.value > 0:
        width = None
        if result.cis is not None:
            width = lam.log_interval[1] - lam.log_interval[0]
        row("log_lambda_bar", math.log(lam.value), width)
    return "\n".join(lines) + "\n"


def _study_config_from(cfg: dict) -> StudyConfig:
    """The study a config describes; what it leaves out is StudyConfig's."""
    seed = _seed(cfg)
    kwargs = {"region": _region_from(cfg), "gp": _gp_from(cfg),
              "quadrature": _quad_from(cfg), "root_seed": seed}
    if cfg.get("design") not in (None, "study-default"):
        kwargs["design"] = _design_from(cfg["design"], seed,
                                        kwargs["region"])
    if "truth" in cfg:
        kwargs["truth"] = _truth_from(cfg)
    if "partitions" in cfg:
        kwargs["partitions_nx"], kwargs["partitions_ny"] = _partitions_from(cfg)
    if "grid_resolution" in cfg:
        kwargs["grid_resolution"] = _number("grid_resolution",
                                            cfg["grid_resolution"])
    for key in ("replicates", "workers"):
        if key in cfg:
            kwargs[key] = _number(key, cfg[key], int)
    config = StudyConfig(**kwargs)
    if "fit" in cfg:
        config = dataclasses.replace(config, fit_settings=_section_from(
            cfg, "fit", config.fit_settings))
    return config


def cmd_experiment(cfg: dict) -> int:
    out_dir = _require(cfg, "out")
    config = _study_config_from(cfg)
    report = run_study(config)
    emit_reports(report, out_dir, manifest={
        "command": "experiment",
        "config": {**cfg, "seed": config.root_seed}})
    excluded = sum(e["n_excluded"] for e in report.summary)
    print(f"experiment: {config.replicates} replicates x "
          f"{len(config.scenarios)} scenarios -> {out_dir} "
          f"({excluded} fits excluded)")
    return EXIT_OK


def cmd_predict_map(cfg: dict) -> int:
    out_path = _require(cfg, "out")
    report_path = _require(cfg, "fit_report")
    if not os.path.exists(report_path):
        raise ConfigError(f"fit report not found: {report_path}")
    field = _field_from(_require(cfg, "raster"))
    with open(report_path) as fh:
        report = json.load(fh)
    est = report.get("estimates", {})
    beta = []
    for i in range(1 + field.q):
        key = f"beta{i}"
        if key not in est:
            raise DataError(f"{report_path}: missing estimate {key!r}")
        beta.append(float(est[key]))
    beta = np.array(beta)

    lam = np.exp(field.design_matrix() @ beta).reshape(field.ny, field.nx)
    out_field = type(field)(field.x0, field.y0, field.dx, field.dy,
                            lam[:, :, None])
    parent = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(parent, exist_ok=True)
    write_raster(out_field, out_path, covariate=0)
    lam_bar = float(lam.sum() * field.cell_area)
    print(f"predicted intensity raster -> {out_path} (lambda_bar={lam_bar!r})")
    return EXIT_OK


def _write_manifest(out_dir: str, command: str, cfg: dict) -> None:
    _write_json(os.path.join(out_dir, "run_manifest.json"),
                {"version": __version__, "command": command, "config": cfg})


# Each command, and the top-level config keys it reads. A key mapped to a
# type has a flag that parses to it (``--quad-spacing`` sets
# ``quad_spacing``); the others are set in the config file only.
_COMMANDS = {
    "simulate": (cmd_simulate, {
        "out": str, "seed": int, "region": None, "truth": None,
        "design": str, "raster": str, "gp": None, "grid_resolution": None}),
    "fit": (cmd_fit, {
        "out": str, "scenario": str, "observations": str, "design": str,
        "raster": str, "seed": int, "quad_spacing": float,
        "quad_mode": None, "partitions": None, "fit": None}),
    "experiment": (cmd_experiment, {
        "out": str, "seed": int, "region": None, "gp": None,
        "grid_resolution": None, "quad_spacing": float, "quad_mode": None,
        "design": None, "truth": None, "partitions": None,
        "replicates": int, "workers": int, "fit": None}),
    "predict-map": (cmd_predict_map, {
        "out": str, "fit_report": str, "raster": str}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusedsdm",
        description="Fused distance-sampling / capture-recapture SDM toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key, kind in keys.items():
            if kind is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, keys = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        _check_known(args.command, cfg, keys)
        for key in keys:
            if (value := getattr(args, key, None)) is not None:
                cfg[key] = value
        _check_paths(cfg)
        return command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
