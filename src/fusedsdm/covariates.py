"""Spatial covariate fields on a regular grid.

A field stores one value vector per grid cell and is evaluated by
piecewise-constant (containing-cell) lookup, so simulators, likelihood
quadrature, and brute-force checks agree exactly on the native grid.
Fields come from either a reduced-rank Gaussian process simulation or
plain-text rasters (one file per covariate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .geometry import StudyRegion


@dataclass(frozen=True, eq=False)
class CovariateField:
    """Gridded covariates; ``values[j, i, k]`` is covariate k in cell
    (column i, row j), rows indexed from the south edge."""

    x0: float
    y0: float
    dx: float
    dy: float
    values: np.ndarray  # (ny, nx, q)

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ConfigError("field values must have shape (ny, nx, q)")
        if not np.isfinite(self.values).all():
            raise ConfigError("field values must all be finite")
        if not all(map(math.isfinite, (self.x0, self.y0, self.dx, self.dy))):
            raise ConfigError(f"field origin and cell sizes must be finite, "
                              f"got x0={self.x0}, y0={self.y0}, "
                              f"dx={self.dx}, dy={self.dy}")
        if self.dx <= 0 or self.dy <= 0:
            raise ConfigError("cell sizes must be positive")

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def q(self) -> int:
        return self.values.shape[2]

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def xmax(self) -> float:
        return self.x0 + self.nx * self.dx

    @property
    def ymax(self) -> float:
        return self.y0 + self.ny * self.dy

    def cell_index(self, pts: np.ndarray) -> np.ndarray:
        """Flat index (row-major from the south-west cell) of the cell
        containing each location; the east/north edges fold into the last
        cell so the closed region is covered."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.off_grid(pts[:, 0], pts[:, 1])
        if out.any():
            k = int(np.argmax(out))
            raise DataError(f"location {tuple(pts[k].tolist())} is outside "
                            f"the field grid")
        return self.cell_of(pts[:, 0], pts[:, 1])

    def off_grid(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Whether each location (x, y) lies further outside the grid than
        ``cell_index`` folds into its edge cells (1e-12)."""
        eps = 1e-12
        return ((x < self.x0 - eps) | (x > self.xmax + eps)
                | (y < self.y0 - eps) | (y > self.ymax + eps))

    def covers(self, region: StudyRegion) -> bool:
        """Whether no location of ``region``'s closed box lies ``off_grid``."""
        return not self.off_grid(np.array([region.xmin, region.xmax]),
                                 np.array([region.ymin, region.ymax])).any()

    def cell_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``cell_index`` of locations (x, y), arrays of one shape, that are
        known not to lie ``off_grid``: nothing is checked."""
        ix = np.clip(np.floor((x - self.x0) / self.dx).astype(int), 0, self.nx - 1)
        iy = np.clip(np.floor((y - self.y0) / self.dy).astype(int), 0, self.ny - 1)
        return iy * self.nx + ix

    def cell_centers(self) -> np.ndarray:
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.dx
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.dy
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def design_matrix(self) -> np.ndarray:
        """(n_cells, 1 + q) matrix of covariate rows with a leading 1."""
        flat = self.values.reshape(self.n_cells, self.q)
        return np.column_stack([np.ones(self.n_cells), flat])

    def covariates_at(self, pts: np.ndarray) -> np.ndarray:
        """(n, 1 + q) covariate rows, intercept included."""
        cells = self.cell_index(pts)
        rows = self.values.reshape(self.n_cells, self.q)[cells]
        return np.column_stack([np.ones(len(cells)), rows])


@dataclass(frozen=True)
class GPConfig:
    """Reduced-rank Gaussian process settings: a regular knot lattice with a
    Gaussian kernel and i.i.d. normal coefficients."""

    n_knots: int = 8
    kernel_range: float = 0.15
    marginal_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_knots < 2:
            raise ConfigError("need at least 2 knots per axis")
        if self.kernel_range <= 0 or self.marginal_sd <= 0:
            raise ConfigError("kernel_range and marginal_sd must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def simulate_grf(region: StudyRegion, cfg: GPConfig,
                 grid_resolution: float) -> CovariateField:
    """Simulate one covariate as a reduced-rank Gaussian random field.

    field(s) = sum_k c_k K(s, knot_k), with K a Gaussian kernel of
    bandwidth ``kernel_range`` and c_k i.i.d. normal. The coefficient scale
    is set analytically so the pointwise variance averages marginal_sd^2
    over the grid (an empirical rescale would blow up the degenerate
    flat-kernel case), and the field is centered to spatial mean zero.
    Deterministic given the seed.

    The knots form an n x n lattice and the kernel factors by axis,
    K(s, knot (l, m)) = ky(s_y, l) kx(s_x, m), so the field on the
    (ny, nx) grid is ky C kx' for the (n, n) coefficients C: two
    contractions with an (nx, n) and an (ny, n) kernel, no (cells, n^2)
    array. Both are ``np.einsum`` calls without ``optimize``, which sum
    in a fixed order and call no BLAS, so the field's bits do not depend
    on the thread count.
    """
    if grid_resolution <= 0:
        raise ConfigError("grid_resolution must be positive")
    nx = max(1, int(round(region.width / grid_resolution)))
    ny = max(1, int(round(region.height / grid_resolution)))
    dx = region.width / nx
    dy = region.height / ny
    xs = region.xmin + (np.arange(nx) + 0.5) * dx
    ys = region.ymin + (np.arange(ny) + 0.5) * dy
    n = cfg.n_knots
    kx = np.exp(-0.5 * (xs[:, None] - np.linspace(region.xmin, region.xmax, n))
                ** 2 / cfg.kernel_range ** 2)
    ky = np.exp(-0.5 * (ys[:, None] - np.linspace(region.ymin, region.ymax, n))
                ** 2 / cfg.kernel_range ** 2)

    # Knot (row l, column m) takes draw l * n + m.
    coeff = np.random.default_rng(cfg.seed).standard_normal((n, n))
    raw = np.einsum("jl,il->ji", ky, np.einsum("im,lm->il", kx, coeff))
    raw -= raw.mean()
    # Rescale the centered draw to the target spatial sd. A near-flat
    # kernel leaves essentially no spatial variation to rescale; amplifying
    # numerical residue there would be nonsense, so such draws keep their
    # (near-constant) raw scale. The mean over cells of sum_k K^2 is the
    # product of the per-axis means of the squared kernel sums.
    pointwise = math.sqrt(float((kx ** 2).sum(axis=1).mean()
                                * (ky ** 2).sum(axis=1).mean()))
    sd_raw = float(raw.std())
    if sd_raw > 1e-4 * pointwise:
        raw *= cfg.marginal_sd / sd_raw
    else:
        raw *= cfg.marginal_sd / pointwise
    return CovariateField(region.xmin, region.ymin, dx, dy, raw[:, :, None])


_HEADER_KEYS = ("ncols", "nrows", "xll", "yll", "cellsize", "nodata")
# The nodata value that write_raster declares; it writes no such cell.
_NODATA = -9999.0


def _read_one_raster(path):
    with open(path) as fh:
        tokens = fh.read().split()
    header = {}
    pos = 0
    while pos + 1 < len(tokens) and tokens[pos].lower() in _HEADER_KEYS:
        key, text = tokens[pos].lower(), tokens[pos + 1]
        try:
            header[key] = float(text)
        except ValueError:
            raise DataError(f"{path}: header {key} {text!r} is not a number") \
                from None
        pos += 2
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise DataError(f"{path}: malformed header, missing {', '.join(missing)}")
    for key in ("ncols", "nrows"):
        if not (header[key] >= 1 and header[key].is_integer()):
            raise DataError(f"{path}: header {key} must be a positive "
                            f"integer, got {header[key]!r}")
    for key in ("xll", "yll", "cellsize"):
        if not math.isfinite(header[key]):
            raise DataError(f"{path}: header {key} must be finite, got "
                            f"{header[key]!r}")
    if header["cellsize"] <= 0:
        raise DataError(f"{path}: header cellsize must be positive, got "
                        f"{header['cellsize']!r}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    body = tokens[pos:]
    if len(body) != ncols * nrows:
        raise DataError(
            f"{path}: expected {ncols * nrows} cell values, found {len(body)}"
        )
    try:
        vals = np.array([float(t) for t in body])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell value") from exc
    # File rows run north to south; flip so row 0 is the south edge.
    grid = vals.reshape(nrows, ncols)[::-1, :]
    nod = header["nodata"]
    bad = np.argwhere(grid == nod)
    if len(bad):
        j, i = bad[0]
        raise DataError(f"{path}: missing value at cell (row {int(j)}, col {int(i)})")
    return header, grid


def ingest_raster(paths) -> CovariateField:
    """Read one or more rasters (one covariate each) sharing a common grid."""
    if isinstance(paths, (str, bytes)) or not hasattr(paths, "__iter__"):
        paths = [paths]
    paths = list(paths)
    if not paths:
        raise DataError("no raster files given")
    headers, grids = zip(*(_read_one_raster(p) for p in paths))
    ref = headers[0]
    for p, h in zip(paths[1:], headers[1:]):
        for key in ("ncols", "nrows", "xll", "yll", "cellsize"):
            if h[key] != ref[key]:
                raise DataError(
                    f"{p}: raster grid ({key}={h[key]}) inconsistent with "
                    f"{paths[0]} ({key}={ref[key]})"
                )
    values = np.stack(grids, axis=2)
    cs = ref["cellsize"]
    return CovariateField(ref["xll"], ref["yll"], cs, cs, values)


def write_raster(field: CovariateField, path, covariate: int = 0) -> None:
    """Write one covariate layer in the ingestion format."""
    if abs(field.dx - field.dy) > 1e-12 * max(field.dx, field.dy):
        raise ConfigError("raster format requires square cells")
    if not (0 <= covariate < field.q):
        raise ConfigError(f"field has no covariate index {covariate}")
    grid = field.values[::-1, :, covariate]  # north row first
    with open(path, "w") as fh:
        fh.write(f"ncols {field.nx}\nnrows {field.ny}\n")
        fh.write(f"xll {float(field.x0)!r}\nyll {float(field.y0)!r}\n")
        fh.write(f"cellsize {float(field.dx)!r}\nnodata {_NODATA!r}\n")
        for row in grid:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def region_of(field: CovariateField) -> StudyRegion:
    """Axis-aligned region spanned by the field grid."""
    return StudyRegion(field.x0, field.y0, field.xmax, field.ymax)
