"""Command-line interface: simulate, fit, experiment, predict-map."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fusedsdm
from fusedsdm.cli import _gp_from, _section_from, _study_config_from, main
from fusedsdm.covariates import GPConfig, ingest_raster, region_of
from fusedsdm.estimation import FitSettings, fit
from fusedsdm.experiment import (
    StudyConfig,
    _write_json,
    emit_reports,
    run_study,
)
from fusedsdm.geometry import StudyRegion, load_design
from fusedsdm.likelihoods import LikelihoodSpec, QuadratureSettings
from fusedsdm.pointprocess import degrade_to_partial, load_observations, save_observations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures", "demo")


def write_config(path, **entries):
    with open(path, "w") as fh:
        json.dump(entries, fh)
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated dataset produced through the CLI."""
    out = tmp_path_factory.mktemp("sim")
    cfg = write_config(
        out / "config.json",
        design=os.path.join(FIXTURES, "design.csv"),
        region=[0.0, 0.0, 1.2, 0.8],
        gp={"n_knots": 7, "kernel_range": 0.4, "marginal_sd": 1.0, "seed": 12},
        grid_resolution=0.02,
        truth={"beta": [5.0, 0.8], "phi": 0.002, "theta": 0.7},
        seed=7,
        out=str(out / "data"),
    )
    assert main(["simulate", "--config", cfg]) == 0
    return out / "data"


class TestSimulate:
    def test_writes_all_outputs(self, sim_dir):
        for name in ("observations.csv", "pattern.csv", "covariate.asc",
                     "design.csv", "run_manifest.json"):
            assert (sim_dir / name).exists()

    def test_produces_observations(self, sim_dir):
        obs = load_observations(sim_dir / "observations.csv")
        assert obs.n > 10

    def test_seed_repeat_identical_files(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = write_config(
                tmp_path / f"cfg_{sub}.json",
                design=os.path.join(FIXTURES, "design.csv"),
                region=[0.0, 0.0, 1.2, 0.8],
                gp={"n_knots": 5, "kernel_range": 0.3, "seed": 4},
                grid_resolution=0.05,
                truth={"beta": [4.0, 0.5], "phi": 0.002, "theta": 0.5},
                seed=99,
                out=str(tmp_path / sub),
            )
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(tmp_path / sub)
        for name in ("observations.csv", "pattern.csv", "covariate.asc"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_overlapping_design_refused_before_output(self, tmp_path):
        design = tmp_path / "overlap.csv"
        design.write_text(
            "id,kind,radius,geometry\n"
            "a,trap,0.02,0.5 0.5\n"
            "b,trap,0.02,0.53 0.5\n"
        )
        out = tmp_path / "never"
        cfg = write_config(
            tmp_path / "cfg.json",
            design=str(design),
            truth={"beta": [3.0], "phi": 0.002, "theta": 0.5},
            out=str(out),
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert not out.exists()

    def test_missing_config_file(self):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2

    def test_manifest_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["simulate", "--config", str(sim_dir / "run_manifest.json"),
                     "--out", str(out)]) == 0
        for name in ("observations.csv", "pattern.csv", "covariate.asc",
                     "design.csv"):
            assert (out / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_committed_demo_config_reproduces_fixture(self, tmp_path,
                                                      monkeypatch, capsys):
        """The demo config's paths are relative to the repository root."""
        monkeypatch.chdir(ROOT)
        out = tmp_path / "demo"
        assert main(["simulate", "--config",
                     os.path.join("tests", "fixtures", "demo",
                                  "simulate_config.json"),
                     "--out", str(out)]) == 0, capsys.readouterr().err
        for name in ("observations.csv", "pattern.csv", "covariate.asc",
                     "design.csv"):
            assert (out / name).read_bytes() == \
                (Path(FIXTURES) / name).read_bytes()

    def test_study_default_design_produces_hundreds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            design="study-default",
            truth={"beta": [9.0, 1.0], "phi": 0.025, "theta": 0.2},
            gp={"n_knots": 8, "kernel_range": 0.15, "seed": 0},
            grid_resolution=0.01,
            seed=5,
            out=str(tmp_path / "data"),
        )
        assert main(["simulate", "--config", cfg]) == 0
        obs = load_observations(tmp_path / "data" / "observations.csv")
        assert obs.n >= 100  # hundreds of observations under study defaults
        printed = capsys.readouterr().out
        assert f"n_ds={obs.n_ds}" in printed and f"n_cr={obs.n_cr}" in printed

    def test_study_default_design_follows_the_region(self, tmp_path):
        """Without a design file the study design's lattices are laid on
        the config's region, so every unit lies inside it and observes."""
        out = tmp_path / "data"
        cfg = write_config(
            tmp_path / "cfg.json",
            region=[2.0, 1.0, 4.0, 2.0],
            truth={"beta": [6.0, 1.0], "phi": 0.025, "theta": 0.5},
            gp={"n_knots": 6, "kernel_range": 0.3, "seed": 2},
            grid_resolution=0.02,
            seed=5,
            out=str(out),
        )
        assert main(["simulate", "--config", cfg]) == 0
        design = load_design(out / "design.csv")
        region = StudyRegion(2.0, 1.0, 4.0, 2.0)
        for r in design.regions:
            lo, hi = r.unit.xy - r.radius, r.unit.xy + r.radius
            assert region.contains(np.array([lo, hi])).all(), r.unit.id
        obs = load_observations(out / "observations.csv")
        assert obs.n_ds + obs.n_cr > 0

    def test_reads_a_raster_in_place_of_the_field(self, sim_dir, tmp_path):
        """With ``raster`` the field is read, not simulated: ``gp`` and
        ``grid_resolution`` are ignored and the raster is written back."""
        out = tmp_path / "data"
        cfg = write_config(
            tmp_path / "cfg.json",
            design=os.path.join(FIXTURES, "design.csv"),
            region=[0.0, 0.0, 1.2, 0.8],
            raster=str(sim_dir / "covariate.asc"),
            gp={"seed": 99},
            grid_resolution=0.1,
            truth={"beta": [5.0, 0.8], "phi": 0.002, "theta": 0.7},
            out=str(out),
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert (out / "covariate.asc").read_bytes() == \
            (sim_dir / "covariate.asc").read_bytes()
        assert load_observations(out / "observations.csv").n > 0


class TestFit:
    def test_fused_distance_report(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario="fused-distance",
            observations=str(sim_dir / "observations.csv"),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            out=str(out),
        )
        assert main(["fit", "--config", cfg]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"]
        assert set(report["ci"]) >= {"beta0", "beta1", "log_phi",
                                     "logit_theta"}
        assert "ci" in report["abundance"]
        text = (out / "fit_report.txt").read_text()
        assert "ci_width" in text
        for name in ("beta0", "beta1", "log_lambda_bar"):
            assert name in text

    def test_complete_scenario_on_degraded_data_errors(self, sim_dir,
                                                       tmp_path):
        partial_path = tmp_path / "partial.csv"
        save_observations(
            degrade_to_partial(load_observations(sim_dir / "observations.csv")),
            partial_path)
        out = tmp_path / "fit"
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario="complete",
            observations=str(partial_path),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            out=str(out),
        )
        assert main(["fit", "--config", cfg]) == 3
        assert not out.exists()

    def test_unknown_scenario_is_config_error(self, sim_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario="bogus",
            observations=str(sim_dir / "observations.csv"),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            out=str(tmp_path / "x"),
        )
        assert main(["fit", "--config", cfg]) == 2

    def test_flag_overrides_config(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario="complete",
            observations=str(sim_dir / "observations.csv"),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            out=str(out),
        )
        assert main(["fit", "--config", cfg,
                     "--scenario", "fused-region"]) == 0
        report = json.loads((out / "run_manifest.json").read_text())
        assert report["config"]["scenario"] == "fused-region"

    def test_manifest_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario="aggregated-cos",
            observations=str(sim_dir / "observations.csv"),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            partitions=[4, 2],
            fit={"n_starts": 2},
            out=str(out),
        )
        assert main(["fit", "--config", cfg]) in (0, 4)
        out2 = tmp_path / "again"
        assert main(["fit", "--config", str(out / "run_manifest.json"),
                     "--out", str(out2)]) in (0, 4)
        assert (out / "fit_report.json").read_bytes() == \
            (out2 / "fit_report.json").read_bytes()

    @pytest.mark.parametrize("scenario", ("fused-region", "aggregated-cos"))
    def test_malformed_partitions_is_config_error(self, scenario, sim_dir,
                                                  tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario=scenario,
            observations=str(sim_dir / "observations.csv"),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            partitions=[4],
            out=str(tmp_path / "fit"),
        )
        assert main(["fit", "--config", cfg]) == 2
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("scenario", ("fused-region", "aggregated-cos"))
    def test_unknown_unit_is_data_error(self, scenario, sim_dir, tmp_path,
                                        capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("source,unit_id,distance\ncr,nowhere,\n")
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario=scenario,
            observations=str(obs),
            design=str(sim_dir / "design.csv"),
            raster=str(sim_dir / "covariate.asc"),
            out=str(tmp_path / "fit"),
        )
        assert main(["fit", "--config", cfg]) == 3
        assert "'nowhere'" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()


    def test_quad_mode_native_is_the_library_native_quadrature(
            self, sim_dir, tmp_path):
        """``quad_mode`` "native" gives the report of a fit with
        ``QuadratureSettings(mode="native")``, not the default's."""
        entries = dict(scenario="fused-region",
                       observations=str(sim_dir / "observations.csv"),
                       design=str(sim_dir / "design.csv"),
                       raster=str(sim_dir / "covariate.asc"))
        reports = {}
        for mode in ("native", None):
            out = tmp_path / str(mode)
            cfg = write_config(tmp_path / f"{mode}.json", quad_mode=mode,
                               out=str(out), **entries)
            assert main(["fit", "--config", cfg]) == 0
            reports[mode] = (out / "fit_report.json").read_bytes()
        field = ingest_raster([entries["raster"]])
        spec = LikelihoodSpec(
            "fused-region", load_design(entries["design"]), field,
            obs=load_observations(entries["observations"]),
            region=region_of(field),
            quadrature=QuadratureSettings(mode="native"))
        _write_json(tmp_path / "library.json", fit(spec).report())
        assert reports["native"] == (tmp_path / "library.json").read_bytes()
        assert reports["native"] != reports[None]

    def test_unknown_quad_mode_is_config_error(self, sim_dir, tmp_path,
                                               capsys):
        out = tmp_path / "fit"
        cfg = write_config(tmp_path / "cfg.json", scenario="fused-region",
                           observations=str(sim_dir / "observations.csv"),
                           design=str(sim_dir / "design.csv"),
                           raster=str(sim_dir / "covariate.asc"),
                           quad_mode="exact", out=str(out))
        assert main(["fit", "--config", cfg]) == 2
        assert "unknown quadrature mode 'exact'" in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    def test_design_file_is_the_study_design(self, tmp_path):
        """``design`` names a file: the study runs on it, as
        ``run_study`` does on the loaded design."""
        design = os.path.join(FIXTURES, "design.csv")
        entries = dict(replicates=1, seed=3, workers=1, grid_resolution=0.05,
                       region=[0.0, 0.0, 1.2, 0.8],
                       gp={"n_knots": 5, "kernel_range": 0.3, "seed": 8},
                       truth={"beta": [5.0, 0.8], "phi": 0.002, "theta": 0.7})
        cfg = write_config(tmp_path / "cfg.json", design=design,
                           out=str(tmp_path / "cli"), **entries)
        assert main(["experiment", "--config", cfg]) == 0
        config = _study_config_from(entries)
        config = dataclasses.replace(config, design=load_design(design))
        emit_reports(run_study(config), tmp_path / "library")
        for name in ("estimates.csv", "summary.csv", "boxplot_data.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "library" / name).read_bytes()

    def test_single_replicate_smoke_and_manifest_round_trip(self, tmp_path):
        out = tmp_path / "exp"
        cfg = write_config(
            tmp_path / "cfg.json",
            replicates=1,
            seed=3,
            workers=1,
            grid_resolution=0.05,
            gp={"n_knots": 5, "kernel_range": 0.25, "seed": 8},
            truth={"beta": [7.0, 1.0], "phi": 0.025, "theta": 0.2},
            quad_spacing=0.004,
            out=str(out),
        )
        assert main(["experiment", "--config", cfg]) == 0
        for name in ("estimates.csv", "summary.csv", "boxplot_data.csv",
                     "run_manifest.json"):
            assert (out / name).exists()
        # the manifest can be re-fed as a config for a reproducing run
        out2 = tmp_path / "exp2"
        assert main(["experiment", "--config",
                     str(out / "run_manifest.json"), "--out", str(out2)]) == 0
        assert (out / "estimates.csv").read_bytes() == \
            (out2 / "estimates.csv").read_bytes()


class TestConfigDefaults:
    def test_experiment_without_sections_is_the_library_default(self):
        """No fit or truth section: the study StudyConfig() would run."""
        got = _study_config_from({"replicates": 1})
        want = StudyConfig(replicates=1)
        assert got.fit_settings == want.fit_settings
        assert got.fit_settings.n_starts == 2
        assert np.array_equal(got.truth.beta, want.truth.beta)
        assert (got.truth.phi, got.truth.theta) == (want.truth.phi,
                                                    want.truth.theta)
        assert got.gp == want.gp and got.quadrature == want.quadrature
        assert (got.partitions_nx, got.partitions_ny, got.grid_resolution,
                got.workers, got.root_seed) == (
            want.partitions_nx, want.partitions_ny, want.grid_resolution,
            want.workers, want.root_seed)

    def test_missing_keys_come_from_the_dataclasses(self):
        assert _section_from({}, "fit", FitSettings()) == FitSettings()
        assert _gp_from({}) == GPConfig()
        assert _gp_from({"gp": {"seed": 4}}) == GPConfig(seed=4)
        partial = _study_config_from({"replicates": 1, "fit": {}})
        assert partial.fit_settings == FitSettings(n_starts=2)

    @pytest.mark.parametrize("section,key", (("fit", "n_start"),
                                             ("gp", "n_start"),
                                             ("fit", "polish"),
                                             ("fit", "max_iter"),
                                             ("fit", "start_seed")))
    def test_unknown_key_is_config_error(self, section, key, tmp_path,
                                         capsys):
        """A section accepts the fields of its dataclass and nothing else;
        ``polish``, ``max_iter`` and ``start_seed`` are no longer
        FitSettings fields."""
        cfg = write_config(tmp_path / "cfg.json", replicates=1,
                           out=str(tmp_path / "exp"),
                           **{section: {key: 2}})
        assert main(["experiment", "--config", cfg]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()


def _valid_config(command, sim_dir, tmp_path, out):
    """A config each command would run with, writing into ``out``."""
    if command == "simulate":
        return {"design": os.path.join(FIXTURES, "design.csv"),
                "region": [0.0, 0.0, 1.2, 0.8],
                "gp": {"n_knots": 5, "kernel_range": 0.3, "seed": 4},
                "grid_resolution": 0.05,
                "truth": {"beta": [4.0, 0.5], "phi": 0.002, "theta": 0.5},
                "out": out}
    if command == "fit":
        return {"scenario": "fused-region",
                "observations": str(sim_dir / "observations.csv"),
                "design": str(sim_dir / "design.csv"),
                "raster": str(sim_dir / "covariate.asc"), "out": out}
    if command == "experiment":
        return {"grid_resolution": 0.05, "workers": 1, "replicates": 1,
                "out": out}
    report = tmp_path / "fit_report.json"
    report.write_text(json.dumps({"estimates": {"beta0": 1.0, "beta1": 0.5}}))
    return {"fit_report": str(report),
            "raster": str(sim_dir / "covariate.asc"), "out": out}


class TestTopLevelKeys:
    @pytest.mark.parametrize("command,key", (
        ("simulate", "replicates"), ("fit", "workers"),
        ("experiment", "replicate"), ("predict-map", "seed")))
    def test_unknown_key_is_config_error(self, command, key, sim_dir,
                                         tmp_path, capsys):
        """A key the command does not read is an error, even one another
        command reads, and nothing is written."""
        out = tmp_path / "out"
        cfg = _valid_config(command, sim_dir, tmp_path, str(out))
        cfg[key] = 1
        path = write_config(tmp_path / "cfg.json", **cfg)
        assert main([command, "--config", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", (
        ["predict-map", "--workers", "2"],
        ["simulate", "--quad-spacing", "0.1"],
        ["fit", "--replicates", "1"],
        ["experiment", "--raster", "cov.asc"]))
    def test_flag_the_command_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


class TestIntegerSettings:
    @pytest.mark.parametrize("command,entries,field", (
        ("fit", {"fit": {"n_starts": 2.9}}, "fit.n_starts"),
        ("fit", {"fit": {"n_starts": True}}, "fit.n_starts"),
        ("fit", {"fit": {"n_starts": "3"}}, "fit.n_starts"),
        ("fit", {"seed": 1.0}, "seed"),
        ("fit", {"partitions": [4.0, 2]}, "partitions"),
        ("simulate", {"gp": {"n_knots": 5.5}}, "gp.n_knots"),
        ("simulate", {"gp": {"seed": False}}, "gp.seed"),
        ("simulate", {"seed": "7"}, "seed"),
        ("experiment", {"replicates": 1.9}, "replicates"),
        ("experiment", {"workers": 1.0}, "workers"),
        ("experiment", {"workers": 0}, "workers"),
        ("experiment", {"partitions": [10, True]}, "partitions"),
        ("simulate", {"gp": {"kernel_range": True}}, "gp.kernel_range"),
        ("simulate", {"gp": {"marginal_sd": "2"}}, "gp.marginal_sd"),
        ("fit", {"quad_spacing": True}, "quad_spacing"),
        ("simulate", {"truth": {"beta": [4.0, 0.5], "phi": "0.002",
                                "theta": 0.5}}, "truth.phi")))
    def test_non_integer_is_config_error(self, command, entries, field,
                                         sim_dir, tmp_path, capsys):
        """A bool, float or string where an integer belongs, and a bool or
        string where a number belongs, is refused, not cast, and nothing is
        written."""
        out = tmp_path / "out"
        cfg = {**_valid_config(command, sim_dir, tmp_path, str(out)),
               **entries}
        path = write_config(tmp_path / "cfg.json", **cfg)
        assert main([command, "--config", path]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integers_pass_and_float_fields_take_integers(self):
        assert _section_from({"fit": {"n_starts": 3}}, "fit",
                             FitSettings()) == FitSettings(3)
        gp = _gp_from({"gp": {"kernel_range": 1, "n_knots": 5}})
        assert gp == GPConfig(n_knots=5, kernel_range=1.0)
        config = _study_config_from({"replicates": 2, "workers": 2,
                                     "partitions": [4, 2],
                                     "grid_resolution": 1})
        assert (config.replicates, config.workers, config.partitions_nx,
                config.partitions_ny, config.grid_resolution) == (2, 2, 4, 2,
                                                                  1.0)


class TestSettingKinds:
    @pytest.mark.parametrize("command,entries,key", (
        ("fit", {"raster": 5.5}, "raster"),
        ("fit", {"raster": {"a": 1}}, "raster"),
        ("fit", {"raster": ["a.asc", 3]}, "raster"),
        ("fit", {"out": 7}, "out"),
        ("fit", {"observations": 3}, "observations"),
        ("fit", {"design": 1}, "design"),
        ("simulate", {"region": 5}, "region"),
        ("experiment", {"region": 5}, "region"),
        ("experiment", {"design": [1]}, "design"),
        ("predict-map", {"fit_report": 2}, "fit_report"),
        ("fit", {"fit": {"n_starts": -3}}, "n_starts"),
        ("experiment", {"fit": {"n_starts": 0}}, "n_starts")))
    def test_refused_before_output(self, command, entries, key, sim_dir,
                                   tmp_path, capsys):
        """A file setting that is not a string (nor, for ``raster``, a list
        of strings), a region that is not a list and a fit setting below
        its least value are config errors naming the key, and nothing is
        written."""
        out = tmp_path / "out"
        cfg = {**_valid_config(command, sim_dir, tmp_path, str(out)),
               **entries}
        path = write_config(tmp_path / "cfg.json", **cfg)
        assert main([command, "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_raster_zero_is_not_read_from_stdin(self, sim_dir, tmp_path):
        """``os.path.exists(0)`` is true, for the descriptor of stdin."""
        out = tmp_path / "out"
        cfg = {**_valid_config("fit", sim_dir, tmp_path, str(out)),
               "raster": 0}
        path = write_config(tmp_path / "cfg.json", **cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "fusedsdm.cli", "fit", "--config", path],
            env=_package_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "raster must be" in proc.stderr
        assert not out.exists()


class TestNegativeSeeds:
    @pytest.mark.parametrize("command,entries", (
        ("simulate", {"seed": -1}),
        ("simulate", {"gp": {"seed": -2}}),
        ("fit", {"seed": -1}),
        ("experiment", {"seed": -1}),
        ("experiment", {"gp": {"seed": -2}})))
    def test_refused_before_output(self, command, entries, sim_dir, tmp_path,
                                   capsys):
        """numpy's generators refuse negative seeds with a ValueError; the
        config is refused first, by name, and nothing is written."""
        out = tmp_path / "out"
        cfg = {**_valid_config(command, sim_dir, tmp_path, str(out)),
               **entries}
        path = write_config(tmp_path / "cfg.json", **cfg)
        assert main([command, "--config", path]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestInputErrors:
    @pytest.mark.parametrize("command,entries,expected", (
        ("simulate", '{"seed": 1,\n "out": }', "cfg.json:2: invalid JSON"),
        ("simulate", "[1, 2]", "cfg.json: config must be a JSON object"),
        ("simulate", {"out": None}, "missing required setting 'out'"),
        ("simulate", {"truth": None}, "missing 'truth' with beta, phi, theta"),
        ("simulate", {"truth": {"beta": [4.0, 0.5], "phi": 0.002}},
         "truth is missing 'theta'"),
        ("simulate", {"truth": {"beta": 4.0, "phi": 0.002, "theta": 0.5}},
         "truth.beta must be a list of numbers"),
        ("simulate", {"gp": 3}, "'gp' must be a JSON object"),
        ("simulate", {"design": "{missing}"},
         "design file not found: {missing}"),
        ("fit", {"raster": "{missing}"}, "raster file not found: {missing}"),
        ("simulate", {"raster": "{sim}/covariate.asc",
                      "truth": {"beta": [4.0], "phi": 0.002, "theta": 0.5}},
         "truth has 1 beta coefficients but the field provides 1 "
         "covariates"),
        ("fit", {"observations": "{missing}"},
         "observations file not found: {missing}"),
        ("predict-map", {"fit_report": "{missing}"},
         "fit report not found: {missing}")),
        ids=("json-syntax", "json-list", "out", "truth", "truth-key",
             "truth-beta", "section", "design-file", "raster-file",
             "beta-length", "observations-file", "fit-report-file"))
    def test_config_error_names_its_input(self, command, entries, expected,
                                          sim_dir, tmp_path, capsys):
        """A malformed config file, a missing or malformed setting and a
        missing input file exit 2 before any output, with a message that
        names the file and line, the setting or the file."""
        out = tmp_path / "out"
        names = {"missing": str(tmp_path / "missing.file"), "sim": sim_dir}
        path = tmp_path / "cfg.json"
        if isinstance(entries, str):
            path.write_text(entries)
        else:
            cfg = {**_valid_config(command, sim_dir, tmp_path, str(out)),
                   **{key: value.format(**names) if isinstance(value, str)
                      else value for key, value in entries.items()}}
            write_config(path, **cfg)
        assert main([command, "--config", str(path)]) == 2
        assert expected.format(**names) in capsys.readouterr().err
        assert not out.exists()


class TestPredictMap:
    def test_intercept_only_gives_unit_raster(self, tmp_path):
        raster = tmp_path / "cov.asc"
        raster.write_text(
            "ncols 2\nnrows 2\nxll 0.0\nyll 0.0\ncellsize 0.5\n"
            "nodata -9999.0\n0.0 0.0\n0.0 0.0\n")
        report = {"estimates": {"beta0": 0.0, "beta1": 0.0}}
        report_path = tmp_path / "fit_report.json"
        report_path.write_text(json.dumps(report))
        out = tmp_path / "map.asc"
        assert main(["predict-map", "--fit-report", str(report_path),
                     "--raster", str(raster), "--out", str(out)]) == 0
        field = ingest_raster([out])
        assert np.allclose(field.values, 1.0)

    def test_cells_are_exp_of_linear_predictor(self, sim_dir, tmp_path):
        beta = {"beta0": 1.2, "beta1": -0.4}
        report_path = tmp_path / "fit_report.json"
        report_path.write_text(json.dumps({"estimates": beta}))
        out = tmp_path / "map.asc"
        assert main(["predict-map", "--fit-report", str(report_path),
                     "--raster", str(sim_dir / "covariate.asc"),
                     "--out", str(out)]) == 0
        cov = ingest_raster([sim_dir / "covariate.asc"])
        lam = ingest_raster([out])
        want = np.exp(beta["beta0"] + beta["beta1"] * cov.values)
        assert np.allclose(lam.values, want, rtol=1e-12)

    def test_raster_integral_matches_abundance(self, sim_dir, tmp_path):
        """sum(cell value * cell area) equals the reported lambda_bar."""
        from fusedsdm.estimation import abundance
        from fusedsdm.pointprocess import ModelParams

        beta = {"beta0": 2.0, "beta1": 0.5}
        report_path = tmp_path / "fit_report.json"
        report_path.write_text(json.dumps({"estimates": beta}))
        out = tmp_path / "map.asc"
        assert main(["predict-map", "--fit-report", str(report_path),
                     "--raster", str(sim_dir / "covariate.asc"),
                     "--out", str(out)]) == 0
        lam = ingest_raster([out])
        total = float(lam.values.sum() * lam.cell_area)
        cov = ingest_raster([sim_dir / "covariate.asc"])
        want, _ = abundance(
            ModelParams(np.array([2.0, 0.5]), 0.01, 0.5), cov)
        assert total == pytest.approx(want, rel=1e-8)

    def test_missing_estimate_is_data_error(self, sim_dir, tmp_path):
        report_path = tmp_path / "fit_report.json"
        report_path.write_text(json.dumps({"estimates": {"beta0": 1.0}}))
        assert main(["predict-map", "--fit-report", str(report_path),
                     "--raster", str(sim_dir / "covariate.asc"),
                     "--out", str(tmp_path / "map.asc")]) == 3


def _package_env():
    """The environment of a subprocess that imports this fusedsdm."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusedsdm.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_out_scipy():
    """The package runs on numpy alone: importing scipy (about 0.3 s, most
    of it scipy.special) would be paid by every CLI start."""
    code = ("import sys, fusedsdm.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_start_leaves_out_process_pool_and_numpy_ma():
    """A CLI process that builds partitions loads neither the process pool
    (only a study with workers > 1 needs it) nor numpy.ma (which np.unique
    imports lazily); together they cost about 30 ms per start."""
    code = ("import sys, fusedsdm.cli\n"
            "from fusedsdm.covariates import ingest_raster, region_of\n"
            "from fusedsdm.geometry import build_partitions, load_design\n"
            f"fixtures = {FIXTURES!r}\n"
            "field = ingest_raster([fixtures + '/covariate.asc'])\n"
            "build_partitions(region_of(field), 4, 2,\n"
            "                 load_design(fixtures + '/design.csv'))\n"
            "print(sorted(m for m in ('concurrent.futures.process', "
            "'numpy.ma') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
