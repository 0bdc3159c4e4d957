"""Study harness: design builder, bookkeeping, determinism, reports."""

import csv
import importlib.util
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import fusedsdm
from fusedsdm.covariates import GPConfig, simulate_grf
from fusedsdm.errors import ConfigError
from fusedsdm.experiment import (
    StudyConfig,
    StudyReport,
    _repair_overlaps,
    build_study_design,
    coverage,
    emit_reports,
    relative_efficiency,
    run_study,
    summarize,
    true_abundance,
)
from fusedsdm.geometry import (
    SampledRegion,
    StudyRegion,
    SurveyDesign,
    SurveyUnit,
    check_nonoverlap,
)
from fusedsdm.pointprocess import ModelParams


def small_config(**kwargs):
    from fusedsdm.likelihoods import QuadratureSettings

    defaults = dict(replicates=2, root_seed=5, workers=1,
                    truth=ModelParams(np.array([7.0, 1.0]), 0.025, 0.2),
                    gp=GPConfig(n_knots=6, kernel_range=0.2, seed=3),
                    grid_resolution=0.02,
                    quadrature=QuadratureSettings(spacing_fraction=0.1))
    defaults.update(kwargs)
    return StudyConfig(**defaults)


SCALE_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "scripts", "scale_probe.py")


@pytest.fixture(scope="module")
def scale_probe():
    spec = importlib.util.spec_from_file_location("scale_probe", SCALE_PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_repair(design):
    """The repair as a loop that rebuilds the regions at every push and
    tests all pairs of disks at every sweep."""
    regions = list(design.regions)
    for _ in range(50):
        xy = np.array([r.unit.xy for r in regions])
        radius = np.array([r.radius for r in regions])
        i, j = np.triu_indices(len(regions), 1)
        d = np.sqrt(((xy[i] - xy[j]) ** 2).sum(axis=1))
        hit = np.flatnonzero(d <= radius[i] + radius[j])
        if not len(hit):
            return SurveyDesign(tuple(regions))
        for ia, ib in zip(i[hit], j[hit]):
            ra, rb = regions[ia], regions[ib]
            delta = rb.unit.xy - ra.unit.xy
            d = float(np.sqrt((delta ** 2).sum()))
            direction = delta / d if d > 0 else np.array([1.0, 0.0])
            need = (ra.radius + rb.radius - d) / 2 + 1e-6
            regions[ia] = SampledRegion(
                SurveyUnit(ra.unit.id, ra.unit.kind,
                           np.clip(ra.unit.xy - need * direction, 0.0, 1.0)),
                ra.radius)
            regions[ib] = SampledRegion(
                SurveyUnit(rb.unit.id, rb.unit.kind,
                           np.clip(rb.unit.xy + need * direction, 0.0, 1.0)),
                rb.radius)
    raise ConfigError("could not repair design overlaps")


def _coordinates(design):
    return [(r.unit.id, r.unit.kind, r.radius, r.unit.xy.tobytes())
            for r in design.regions]


class TestRepairOverlaps:
    @pytest.mark.parametrize("seed", range(10))
    def test_study_design_matches_sweep_loop(self, scale_probe, seed):
        lattice = scale_probe.scaled_design(fusedsdm, seed, 1)
        repaired = _coordinates(_repair_overlaps(lattice))
        assert repaired == _coordinates(_reference_repair(lattice))
        assert repaired == _coordinates(build_study_design(seed))

    @pytest.mark.parametrize("factor,seed", ((2, 0), (2, 1), (4, 0)))
    def test_scaled_lattices_match_sweep_loop(self, scale_probe, factor,
                                              seed):
        """320 and 1,280 units, with radii and jitter divided by 2 and 4."""
        lattice = scale_probe.scaled_design(fusedsdm, seed, factor)
        assert len(lattice.regions) == 80 * factor ** 2
        assert _coordinates(_repair_overlaps(lattice)) \
            == _coordinates(_reference_repair(lattice))

    def test_unrepairable_design_is_config_error(self):
        """Two disks of radius 0.8 cannot both fit apart in the unit
        square; the repair gives up after its sweeps."""
        design = SurveyDesign(tuple(
            SampledRegion(SurveyUnit(f"p{k}", "point", np.array([x, 0.5])),
                          0.8) for k, x in enumerate((0.4, 0.6))))
        with pytest.raises(ConfigError, match="could not repair"):
            _repair_overlaps(design)
        with pytest.raises(ConfigError, match="could not repair"):
            _reference_repair(design)


class TestStudyDesign:
    def test_counts_and_radii(self):
        design = build_study_design(0)
        points = [r for r in design.regions if r.unit.kind == "point"]
        traps = [r for r in design.regions if r.unit.kind == "trap"]
        assert len(points) == 15 and len(traps) == 65
        assert all(r.radius == 0.04 for r in points)
        assert all(r.radius == 0.02 for r in traps)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_nonoverlapping_for_any_seed(self, seed):
        ok, pairs = check_nonoverlap(build_study_design(seed))
        assert ok, pairs

    def test_all_units_inside_unit_square(self):
        design = build_study_design(3)
        region = StudyRegion.unit_square()
        for r in design.regions:
            assert region.contains(np.atleast_2d(r.unit.xy)).all()

    def test_deterministic_given_seed(self):
        a = build_study_design(11)
        b = build_study_design(11)
        for ra, rb in zip(a.regions, b.regions):
            assert np.array_equal(ra.unit.xy, rb.unit.xy)

    def test_lattices_follow_the_study_region(self):
        """On the region (2, 1, 4, 2) the config's default design puts
        every unit's reference point inside the region, with no two
        regions overlapping."""
        region = StudyRegion(2.0, 1.0, 4.0, 2.0)
        design = StudyConfig(replicates=1, region=region).design
        assert _coordinates(design) == _coordinates(
            build_study_design(1, region))
        assert len(design.regions) == 80
        xy = np.array([r.unit.xy for r in design.regions])
        assert region.contains(xy).all()
        ok, pairs = check_nonoverlap(design)
        assert ok, pairs


    def test_negative_root_seed_is_config_error(self, monkeypatch):
        """Refused by name before the design is built, where numpy would
        raise its own ValueError."""
        import fusedsdm.experiment as experiment

        def unreachable(seed):
            raise AssertionError("design built for a negative seed")

        monkeypatch.setattr(experiment, "build_study_design", unreachable)
        with pytest.raises(ConfigError, match="root_seed must be >= 0"):
            StudyConfig(replicates=1, root_seed=-1)

    @pytest.mark.parametrize("scenarios", [
        (), ("nope",), ("complete", "complete"), "complete",
        ("complete", "aggregated-farr", "fused-region", "Fused-distance"),
    ])
    def test_bad_scenarios_are_config_errors(self, scenarios, monkeypatch):
        """Refused by name before the design is built, where an unknown
        scenario used to give an error row per replicate and none an
        IndexError."""
        import fusedsdm.experiment as experiment

        def unreachable(seed):
            raise AssertionError("design built for bad scenarios")

        monkeypatch.setattr(experiment, "build_study_design", unreachable)
        with pytest.raises(ConfigError, match="scenarios must be distinct"):
            StudyConfig(replicates=1, scenarios=scenarios)

    @pytest.mark.parametrize("name, value", [
        ("replicates", 2.5), ("replicates", True), ("root_seed", "1"),
        ("root_seed", 1.0), ("workers", True), ("workers", 2.0),
        ("partitions_nx", 10.0), ("partitions_ny", "10"),
    ])
    def test_non_integer_fields_are_config_errors(self, name, value,
                                                  monkeypatch):
        """Refused by name before the design is built, where a float
        replicate count used to reach ``range`` and ``workers=True`` ran."""
        import fusedsdm.experiment as experiment

        def unreachable(seed):
            raise AssertionError("design built for a non-integer field")

        monkeypatch.setattr(experiment, "build_study_design", unreachable)
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            StudyConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        config = StudyConfig(replicates=np.int64(2), workers=np.int32(1))
        assert config.replicates == 2

    def test_scenario_subsets_in_any_order_accepted(self):
        config = StudyConfig(replicates=1,
                             scenarios=("fused-distance", "complete"))
        assert config.scenarios == ("fused-distance", "complete")


class TestBlasThreads:
    def test_study_reports_do_not_depend_on_blas_threads(self, tmp_path):
        """A 2-replicate default study on one worker writes the same
        estimates, summary and boxplot bytes under one and two OpenBLAS
        threads: the likelihood's entry-axis gemm and gemv products reach
        every estimate and interval."""
        code = ("import sys\n"
                "from fusedsdm.experiment import StudyConfig, emit_reports, "
                "run_study\n"
                "emit_reports(run_study(StudyConfig(replicates=2, workers=1)),"
                " sys.argv[1])\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            fusedsdm.__file__)))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", code,
                            str(tmp_path / threads)], env=env, check=True,
                           capture_output=True)
        for name in ("estimates.csv", "summary.csv", "boxplot_data.csv"):
            one, two = ((tmp_path / t / name).read_bytes()
                        for t in ("1", "2"))
            assert one.count(b"\n") > 1
            assert one == two, name


class TestCoverage:
    def test_all_contain(self):
        assert coverage([(0, 2), (0.5, 1.5)], 1.0) == 1.0

    def test_none_contain(self):
        assert coverage([(2, 3), (4, 5)], 1.0) == 0.0

    def test_boundary_touching_counts_as_covering(self):
        assert coverage([(1.0, 2.0)], 1.0) == 1.0
        assert coverage([(0.0, 1.0)], 1.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            coverage([], 1.0)


class TestRelativeEfficiency:
    def test_ratio(self):
        assert relative_efficiency(2.0, 1.0) == 2.0

    def test_equal_sds(self):
        assert relative_efficiency(0.7, 0.7) == 1.0

    def test_zero_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            relative_efficiency(1.0, 0.0)


class TestTrueAbundance:
    def test_intercept_only_constant_field(self):
        from fusedsdm.covariates import CovariateField
        config = small_config(truth=ModelParams(np.array([9.0]), 0.025, 0.2))
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 0)))
        assert math.log(true_abundance(config, field)) == pytest.approx(9.0)

    def test_zero_coefficients_unit_square(self):
        from fusedsdm.covariates import CovariateField
        config = small_config(
            truth=ModelParams(np.array([0.0, 0.0]), 0.025, 0.2))
        field = CovariateField(0, 0, 0.25, 0.25, np.zeros((4, 4, 1)))
        assert true_abundance(config, field) == pytest.approx(1.0)

    def test_default_study_field_hits_calibration_target(self):
        """log lambda_bar at the truth lands on 9.5 +/- 0.1."""
        config = StudyConfig(replicates=1)
        field = simulate_grf(config.region, config.gp,
                             config.grid_resolution)
        assert abs(math.log(true_abundance(config, field)) - 9.5) <= 0.1


@pytest.fixture(scope="module")
def tiny_report():
    return run_study(small_config())


class TestRunStudy:
    def test_two_rows_per_scenario(self, tiny_report):
        for scenario in tiny_report.scenarios:
            rows = [r for r in tiny_report.rows if r["scenario"] == scenario]
            assert len(rows) == 2

    def test_summary_has_one_entry_per_scenario(self, tiny_report):
        assert [e["scenario"] for e in tiny_report.summary] == \
            list(tiny_report.scenarios)

    def test_exclusion_counts_reported(self, tiny_report):
        for e in tiny_report.summary:
            assert e["n_used"] + e["n_excluded"] == e["n_replicates"] == 2

    def test_failed_fit_never_aborts_study(self, monkeypatch):
        import fusedsdm.experiment as exp

        real_fit = exp.fit
        calls = {"n": 0}

        def flaky_fit(spec, *args, **kwargs):
            calls["n"] += 1
            if spec.scenario == "fused-region":
                raise RuntimeError("synthetic failure")
            return real_fit(spec, *args, **kwargs)

        monkeypatch.setattr(exp, "fit", flaky_fit)
        report = run_study(small_config(replicates=1))
        failed = [r for r in report.rows if r["scenario"] == "fused-region"]
        assert failed[0]["status"] == "error"
        assert "synthetic failure" in failed[0]["message"]
        others = [r for r in report.rows if r["scenario"] != "fused-region"]
        assert all(r["status"] != "error" for r in others)

    def test_unit_outside_region_fails_before_any_fit(self, monkeypatch):
        """The design's quadrature is built before the replicates: a unit
        with no node in the study region is one ConfigError naming it, not
        an error row per fit."""
        import fusedsdm.experiment as exp

        fits = []
        monkeypatch.setattr(exp, "fit",
                            lambda spec, *a, **k: fits.append(spec))
        # The unit square's design: its top row of points (p10-p14) lies
        # above y = 0.5.
        config = small_config(replicates=1,
                              region=StudyRegion(0.0, 0.0, 1.0, 0.5),
                              design=build_study_design(5))
        with pytest.raises(ConfigError, match="of unit 'p10'"):
            run_study(config)
        assert fits == []

    def test_workers_do_not_change_results(self):
        cfg1 = small_config(workers=1)
        cfg2 = small_config(workers=2)
        a = run_study(cfg1)
        b = run_study(cfg2)
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="forked workers inherit the built tables")
    def test_forked_workers_lay_out_no_region_nodes(self, monkeypatch):
        """The study's tables are built before the pool; forked workers
        take them and lay out no quadrature node of their own."""
        from fusedsdm import likelihoods

        parent, real = os.getpid(), likelihoods.region_nodes

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a worker laid out region nodes")
            return real(*args, **kwargs)

        monkeypatch.setattr(likelihoods, "region_nodes", parent_only)
        rows = run_study(small_config(workers=2)).rows
        assert all(r["status"] != "error" for r in rows), \
            [r["message"] for r in rows if r["status"] == "error"]
        assert rows == run_study(small_config(workers=1)).rows


class TestSummarize:
    @staticmethod
    def rows():
        """Three replicates of complete and fused-distance."""
        rows = []
        for rep, (c, f) in enumerate(((9.0, 8.0), (9.5, 10.0), (8.7, 9.1))):
            for scenario, value in (("complete", c), ("fused-distance", f)):
                row = {"replicate": rep, "scenario": scenario,
                       "status": "ok"}
                for key, ci in (("beta0", "beta0"), ("beta1", "beta1"),
                                ("lambda_bar", "lambda")):
                    row[key] = value
                    row[f"ci_{ci}_lo"], row[f"ci_{ci}_hi"] = value - 1, value + 1
                rows.append(row)
        return rows

    TRUTH = {"beta0": 9.0, "beta1": 9.0, "lambda_bar": 9.0}

    def test_relative_efficiency_whatever_the_order(self):
        rows = self.rows()
        paper = summarize(rows, self.TRUTH, ("complete", "fused-distance"))
        last = summarize(rows, self.TRUTH, ("fused-distance", "complete"))
        assert [e["scenario"] for e in last] == ["fused-distance", "complete"]
        assert paper == last[::-1]
        fused = paper[1]
        for key in ("beta0", "beta1", "lambda_bar"):
            assert fused[f"{key}_re"] == pytest.approx(
                fused[f"{key}_sd"] / paper[0][f"{key}_sd"])
            assert fused[f"{key}_re"] > 1

    @pytest.mark.parametrize("complete", ("absent", "failed"))
    def test_no_relative_efficiency_without_complete(self, complete):
        """NaN, where complete without an ok row used to raise ConfigError
        after every fit of the study."""
        rows, scenarios = self.rows(), ("fused-distance",)
        if complete == "failed":
            for row in rows:
                if row["scenario"] == "complete":
                    row["status"] = "error"
            scenarios = ("complete", "fused-distance")
        fused = summarize(rows, self.TRUTH, scenarios)[-1]
        for key in ("beta0", "beta1", "lambda_bar"):
            assert math.isnan(fused[f"{key}_re"])


class TestEmitReports:
    def test_files_and_determinism(self, tmp_path):
        cfg = small_config()
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        emit_reports(run_study(cfg), out1)
        emit_reports(run_study(cfg), out2)
        names = ["estimates.csv", "summary.csv", "boxplot_data.csv",
                 "run_manifest.json"]
        for name in names:
            assert (out1 / name).exists()
        for name in ["estimates.csv", "summary.csv", "boxplot_data.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_numeric_fields_parse_as_floats(self, tiny_report, tmp_path):
        emit_reports(tiny_report, tmp_path)
        with open(tmp_path / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        text = {"scenario", "status", "message"}
        n_ci = 0
        for row in rows:
            for col, value in row.items():
                if col not in text and value != "":
                    float(value)
                    n_ci += col.startswith("ci_")
        assert n_ci > 0

    def test_a_message_with_a_comma_and_a_quote_keeps_its_row_whole(
            self, tmp_path):
        """A hand-built report: every estimates.csv row has the header's
        fields, and the message reads back as it was written."""
        message = 'ValueError: no descent, "step" refused'
        rows = [{"replicate": 0, "scenario": "complete", "status": "error",
                 "n_ds": 3, "n_cr": 1, "message": message},
                {"replicate": 0, "scenario": "fused-distance",
                 "status": "ok", "n_ds": 3, "n_cr": 1, "beta0": 9.0,
                 "beta1": 1.0, "lambda_bar": 8100.5, "loglik": -12.25,
                 "message": "converged, " + message}]
        report = StudyReport(truth={"beta0": 9.0}, rows=rows, summary=[],
                             replicates=1, root_seed=1,
                             scenarios=("complete", "fused-distance"))
        emit_reports(report, tmp_path)
        with open(tmp_path / "estimates.csv", newline="") as fh:
            header, *table = list(csv.reader(fh))
        assert [len(r) for r in table] == [len(header)] * 2
        assert [r[header.index("message")] for r in table] == \
            [message, "converged, " + message]
        assert table[1][header.index("lambda_bar")] == "8100.5"

    def test_summary_one_row_per_scenario(self, tmp_path):
        report = run_study(small_config())
        emit_reports(report, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.scenarios)

    def test_coverage_column_consistent_with_rows(self, tmp_path):
        """Recomputing CI hits from the estimate table reproduces the
        reported coverage."""
        report = run_study(small_config(replicates=3))
        truth = report.truth
        for entry in report.summary:
            rows = [r for r in report.rows
                    if r["scenario"] == entry["scenario"]
                    and r["status"] == "ok"]
            if not rows:
                continue
            hits = sum(1 for r in rows
                       if r["ci_beta0_lo"] <= truth["beta0"]
                       <= r["ci_beta0_hi"])
            assert entry["beta0_cp"] == pytest.approx(hits / len(rows))
