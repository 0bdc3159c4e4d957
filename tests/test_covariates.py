"""Covariate fields: GP simulation, evaluation, raster round trips."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fusedsdm import covariates
from fusedsdm.covariates import (
    CovariateField,
    GPConfig,
    ingest_raster,
    region_of,
    simulate_grf,
    write_raster,
)
from fusedsdm.errors import ConfigError, DataError
from fusedsdm.geometry import StudyRegion


class TestSimulateGRF:
    def test_empirical_sd_near_target_across_seeds(self):
        """Spatial sd of a draw stays within [0.7, 1.3] of marginal_sd."""
        region = StudyRegion.unit_square()
        sds = []
        for seed in range(100):
            cfg = GPConfig(n_knots=8, kernel_range=0.15, marginal_sd=1.0,
                           seed=seed)
            field = simulate_grf(region, cfg, 0.05)
            sds.append(field.values.std())
        sds = np.array(sds)
        assert ((sds > 0.7) & (sds < 1.3)).mean() >= 0.95
        assert abs(np.median(sds) - 1.0) < 0.15

    def test_same_seed_identical_fields(self):
        region = StudyRegion.unit_square()
        cfg = GPConfig(seed=42)
        a = simulate_grf(region, cfg, 0.02)
        b = simulate_grf(region, cfg, 0.02)
        assert np.array_equal(a.values, b.values)

    def test_flat_kernel_limit_near_constant(self):
        """kernel_range >> region size makes the field spatially flat."""
        region = StudyRegion.unit_square()
        cfg = GPConfig(n_knots=2, kernel_range=100.0, marginal_sd=1.0, seed=3)
        field = simulate_grf(region, cfg, 0.05)
        spread = field.values.max() - field.values.min()
        assert spread / cfg.marginal_sd < 1e-3

    def test_field_centered(self):
        region = StudyRegion.unit_square()
        field = simulate_grf(region, GPConfig(seed=5), 0.02)
        assert abs(field.values.mean()) < 1e-12


def _reference_grf(region, cfg, grid_resolution):
    """simulate_grf with the squared distances summed over the last axis of
    the (cells, knots, 2) cube of cell-to-knot differences."""
    nx = max(1, int(round(region.width / grid_resolution)))
    ny = max(1, int(round(region.height / grid_resolution)))
    dx, dy = region.width / nx, region.height / ny
    xs = region.xmin + (np.arange(nx) + 0.5) * dx
    ys = region.ymin + (np.arange(ny) + 0.5) * dy
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    kgx, kgy = np.meshgrid(np.linspace(region.xmin, region.xmax, cfg.n_knots),
                           np.linspace(region.ymin, region.ymax, cfg.n_knots))
    knots = np.column_stack([kgx.ravel(), kgy.ravel()])
    d2 = ((centers[:, None, :] - knots[None, :, :]) ** 2).sum(axis=2)
    K = np.exp(-0.5 * d2 / cfg.kernel_range ** 2)
    coeff = np.random.default_rng(cfg.seed).standard_normal(len(knots))
    raw = K @ coeff
    raw -= raw.mean()
    pointwise = math.sqrt(float((K ** 2).sum(axis=1).mean()))
    sd_raw = float(raw.std())
    if sd_raw > 1e-4 * pointwise:
        raw *= cfg.marginal_sd / sd_raw
    else:
        raw *= cfg.marginal_sd / pointwise
    return raw.reshape(ny, nx, 1), dx, dy


class TestSimulateGRFBits:
    @pytest.mark.parametrize("region", (
        StudyRegion.unit_square(), StudyRegion(0.3, -1.2, 2.1, 0.1),
        StudyRegion(-5.0, 2.0, -4.2, 3.1)))
    @pytest.mark.parametrize("n_knots", (2, 5, 8, 13))
    def test_matches_difference_cube(self, region, n_knots):
        """The field to rounding, and its grid to the bit, on offset and
        non-square regions. The reference sums over knots in a BLAS gemv,
        whose bits no thread-free sum can give."""
        for resolution in (0.05, 0.02, 0.013):
            for seed in (0, 1):
                cfg = GPConfig(n_knots=n_knots, kernel_range=0.15 * (seed + 1),
                               seed=seed)
                field = simulate_grf(region, cfg, resolution)
                values, dx, dy = _reference_grf(region, cfg, resolution)
                assert field.values.shape == values.shape
                assert np.abs(field.values - values).max() <= 1e-13
                assert (field.x0, field.y0, field.dx, field.dy) == (
                    region.xmin, region.ymin, dx, dy)

    def test_bits_do_not_depend_on_blas_threads(self):
        """Seeds 0-9 of the 5,850-cell field with 13 x 13 knots have the
        same bytes under one and two OpenBLAS threads; a (cells, knots)
        gemv's bits depend on the thread count at this shape."""
        code = ("import hashlib\n"
                "from fusedsdm.covariates import GPConfig, simulate_grf\n"
                "from fusedsdm.geometry import StudyRegion\n"
                "region = StudyRegion(0.3, -1.2, 2.1, 0.1)\n"
                "h = hashlib.sha256()\n"
                "for seed in range(10):\n"
                "    field = simulate_grf(region, GPConfig(n_knots=13, "
                "seed=seed), 0.02)\n"
                "    assert field.n_cells == 5850\n"
                "    h.update(field.values.tobytes())\n"
                "print(h.hexdigest())")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(covariates.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            digests.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestEvaluate:
    def test_constant_field_with_intercept(self):
        field = CovariateField(0, 0, 0.5, 0.5, np.full((2, 2, 1), 3.0))
        assert np.array_equal(field.covariates_at(np.array([[0.3, 0.6]]))[0],
                              np.array([1.0, 3.0]))

    def test_intercept_only_field(self):
        field = CovariateField(0, 0, 0.5, 0.5, np.zeros((2, 2, 0)))
        assert np.array_equal(field.covariates_at(np.array([[0.3, 0.6]]))[0],
                              np.array([1.0]))

    def test_cell_center_returns_stored_value(self, toy_field):
        # The cell (ix=2, iy=3).
        v = toy_field.covariates_at(np.array([[0.5, 0.7]]))[0]
        assert v[1] == toy_field.values[3, 2, 0]

    def test_piecewise_constant_within_cell(self, toy_field):
        a = toy_field.covariates_at(np.array([[0.41, 0.41]]))[0]
        b = toy_field.covariates_at(np.array([[0.59, 0.59]]))[0]
        assert np.array_equal(a, b)

    def test_rows_of_the_design_matrix(self):
        """covariates_at gathers each location's row of design_matrix, to
        the bit."""
        rng = np.random.default_rng(3)
        field = CovariateField(0.1, -0.2, 0.3, 0.25,
                               rng.normal(0.0, 1.0, (4, 5, 2)))
        pts = np.column_stack([rng.uniform(0.1, 1.6, 50),
                               rng.uniform(-0.2, 0.8, 50)])
        got = field.covariates_at(pts)
        want = field.design_matrix()[field.cell_index(pts)]
        assert got.shape == want.shape == (50, 3)
        assert got.tobytes() == want.tobytes()

    def test_out_of_region_errors(self, toy_field):
        with pytest.raises(DataError):
            toy_field.covariates_at(np.array([[1.4, 0.5]]))

    def test_native_grid_quadrature_consistency(self, toy_field):
        """Integrating any cellwise function on the native grid equals the
        exact cell sum."""
        f = np.cos(toy_field.values[:, :, 0])
        exact = f.sum() * toy_field.cell_area
        centers = toy_field.cell_centers()
        vals = np.cos(toy_field.covariates_at(centers)[:, 1])
        assert vals.sum() * toy_field.cell_area == pytest.approx(exact,
                                                                 rel=1e-12)


def write_demo_raster(path, body, ncols=2, nrows=2, cellsize=0.5,
                      nodata=-9999.0):
    with open(path, "w") as fh:
        fh.write(f"ncols {ncols}\nnrows {nrows}\nxll 0.0\nyll 0.0\n")
        fh.write(f"cellsize {cellsize}\nnodata {nodata}\n")
        fh.write(body)


class TestRasterIO:
    def test_2x2_of_ones(self, tmp_path):
        path = tmp_path / "ones.asc"
        write_demo_raster(path, "1 1\n1 1\n")
        field = ingest_raster([path])
        assert field.nx == field.ny == 2
        assert (field.values == 1.0).all()

    def test_row_order_north_first(self, tmp_path):
        path = tmp_path / "r.asc"
        write_demo_raster(path, "3 4\n1 2\n")
        field = ingest_raster([path])
        # row 0 holds the south edge internally
        assert field.values[0, 0, 0] == 1.0
        assert field.values[1, 1, 0] == 4.0

    def test_mismatched_grids_error(self, tmp_path):
        a, b = tmp_path / "a.asc", tmp_path / "b.asc"
        write_demo_raster(a, "1 1\n1 1\n")
        write_demo_raster(b, "1 1\n1 1\n", cellsize=0.25)
        with pytest.raises(DataError, match="cellsize"):
            ingest_raster([a, b])

    def test_nodata_cell_error_names_cell(self, tmp_path):
        path = tmp_path / "bad.asc"
        write_demo_raster(path, "1 1\n1 -9999\n")
        with pytest.raises(DataError, match=r"row 0, col 1"):
            ingest_raster([path])

    def test_missing_header_key_errors(self, tmp_path):
        path = tmp_path / "hdr.asc"
        path.write_text("ncols 2\nnrows 2\nxll 0\nyll 0\n1 1\n1 1\n")
        with pytest.raises(DataError, match="cellsize"):
            ingest_raster([path])

    def test_non_numeric_cell_errors(self, tmp_path):
        path = tmp_path / "txt.asc"
        write_demo_raster(path, "1 x\n1 1\n")
        with pytest.raises(DataError):
            ingest_raster([path])

    @pytest.mark.parametrize("key,value,text", (
        ("xll", "nan", "header xll must be finite, got nan"),
        ("yll", "-inf", "header yll must be finite, got -inf"),
        ("cellsize", "inf", "header cellsize must be finite, got inf"),
        ("cellsize", "0", "header cellsize must be positive, got 0.0"),
        ("ncols", "2.5", "header ncols must be a positive integer, got 2.5"),
        ("ncols", "nan", "header ncols must be a positive integer, got nan"),
        ("nrows", "0", "header nrows must be a positive integer, got 0.0"),
        ("nrows", "two", "header nrows 'two' is not a number"),
    ))
    def test_bad_header_value_names_file_and_key(self, tmp_path, key, value,
                                                 text):
        header = {"ncols": "2", "nrows": "2", "xll": "0.0", "yll": "0.0",
                  "cellsize": "0.5", "nodata": "-9999"}
        header[key] = value
        path = tmp_path / "bad.asc"
        path.write_text("".join(f"{k} {v}\n" for k, v in header.items())
                        + "1 1\n1 1\n")
        with pytest.raises(DataError) as exc:
            ingest_raster([path])
        assert str(exc.value) == f"{path}: {text}"

    def test_write_read_round_trip(self, tmp_path, toy_field):
        path = tmp_path / "rt.asc"
        write_raster(toy_field, path)
        back = ingest_raster([path])
        assert np.allclose(back.values, toy_field.values)
        assert back.dx == toy_field.dx
        region = region_of(back)
        assert (region.xmax, region.ymax) == (1.0, 1.0)

    def test_multiple_covariates_stack(self, tmp_path):
        a, b = tmp_path / "a.asc", tmp_path / "b.asc"
        write_demo_raster(a, "1 1\n1 1\n")
        write_demo_raster(b, "2 2\n2 2\n")
        field = ingest_raster([a, b])
        assert field.q == 2
        assert np.array_equal(field.covariates_at(np.array([[0.1, 0.1]]))[0],
                              np.array([1.0, 1.0, 2.0]))


class TestValidation:
    def test_gp_config_bounds(self):
        with pytest.raises(ConfigError):
            GPConfig(n_knots=1)
        with pytest.raises(ConfigError):
            GPConfig(kernel_range=0.0)

    def test_negative_gp_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
            GPConfig(seed=-2)

    @pytest.mark.parametrize("grid", (
        (math.nan, 0.0, 0.5, 0.5), (0.0, math.inf, 0.5, 0.5),
        (0.0, 0.0, math.nan, 0.5), (0.0, 0.0, 0.5, math.inf)))
    def test_field_rejects_nonfinite_grid(self, grid):
        with pytest.raises(ConfigError, match="must be finite"):
            CovariateField(*grid, np.zeros((2, 2, 1)))

    def test_field_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            CovariateField(0, 0, 0.5, 0.5, np.full((2, 2, 1), np.nan))

    @pytest.mark.parametrize("call,error,text", (
        (lambda tmp: CovariateField(0, 0, 0.5, 0.5, np.zeros((2, 2))),
         ConfigError, "field values must have shape (ny, nx, q)"),
        (lambda tmp: CovariateField(0, 0, 0.5, 0.0, np.zeros((2, 2, 1))),
         ConfigError, "cell sizes must be positive"),
        (lambda tmp: simulate_grf(StudyRegion.unit_square(), GPConfig(), 0.0),
         ConfigError, "grid_resolution must be positive"),
        (lambda tmp: ingest_raster([_raster(tmp, "1 1\n1\n")]),
         DataError, "{tmp}/r.asc: expected 4 cell values, found 3"),
        (lambda tmp: ingest_raster([]),
         DataError, "no raster files given"),
        (lambda tmp: ingest_raster(str(_raster(tmp, "1 1\n1\n"))),
         DataError, "{tmp}/r.asc: expected 4 cell values, found 3"),
        (lambda tmp: ingest_raster(_raster(tmp, "1 1\n1 1\nx\n")),
         DataError, "{tmp}/r.asc: expected 4 cell values, found 5"),
        (lambda tmp: write_raster(
            CovariateField(0, 0, 0.5, 0.25, np.zeros((2, 2, 1))),
            tmp / "w.asc"),
         ConfigError, "raster format requires square cells"),
        (lambda tmp: write_raster(
            CovariateField(0, 0, 0.5, 0.5, np.zeros((2, 2, 1))),
            tmp / "w.asc", covariate=1),
         ConfigError, "field has no covariate index 1"),
    ))
    def test_bad_input_error_names_its_field(self, tmp_path, call, error,
                                             text):
        with pytest.raises(error) as exc:
            call(tmp_path)
        assert type(exc.value) is error
        assert str(exc.value) == text.format(tmp=tmp_path)


def _raster(tmp_path, body):
    path = tmp_path / "r.asc"
    write_demo_raster(path, body)
    return path
