"""Simulation of the latent point pattern and the two observation processes.

Individuals arise from an inhomogeneous Poisson process with intensity
exp(x(s)'beta). An individual inside a distance-sampling region is detected
with half-normal probability exp(-d^2/phi) of its distance to the unit; one
inside a trap's capture region is captured with constant probability theta.
Individuals outside every sampled region are never observed, which is what
makes the missingness not-at-random.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .covariates import CovariateField
from .errors import ConfigError, DataError
from .geometry import (
    PartitionGrid,
    StudyRegion,
    SurveyDesign,
    _read_csv,
    _write_csv,
    check_nonoverlap,
)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Natural-scale parameters: log-intensity coefficients, half-normal
    scale phi (map units squared), capture probability theta."""

    beta: np.ndarray
    phi: float
    theta: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        if not self.phi > 0:
            raise ConfigError("phi must be positive")
        if not 0 < self.theta < 1:
            raise ConfigError("theta must lie strictly in (0, 1)")


@dataclass(frozen=True, eq=False)
class IndividualPattern:
    """Realized locations of all N individuals, observed or not."""

    locations: np.ndarray  # (n, 2)

    @property
    def n(self) -> int:
        return len(self.locations)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """DS detections and CR captures, optionally with true locations."""

    ds_unit: np.ndarray          # (n_ds,) unit ids
    ds_distance: np.ndarray      # (n_ds,) recorded distances
    cr_unit: np.ndarray          # (n_cr,) trap ids
    ds_loc: np.ndarray | None = None  # (n_ds, 2) true locations
    cr_loc: np.ndarray | None = None  # (n_cr, 2)

    @property
    def n_ds(self) -> int:
        return len(self.ds_unit)

    @property
    def n_cr(self) -> int:
        return len(self.cr_unit)

    @property
    def n(self) -> int:
        return self.n_ds + self.n_cr

    @property
    def has_locations(self) -> bool:
        return self.ds_loc is not None and self.cr_loc is not None

    @classmethod
    def empty(cls) -> "ObservationSet":
        return cls(
            ds_unit=np.array([], dtype=object),
            ds_distance=np.array([], dtype=float),
            cr_unit=np.array([], dtype=object),
            ds_loc=np.zeros((0, 2)),
            cr_loc=np.zeros((0, 2)),
        )


def simulate_ippp(params: ModelParams, field: CovariateField,
                  region: StudyRegion, seed) -> IndividualPattern:
    """Draw N ~ Poisson(integral of lambda) and place individuals by
    rejection against the grid maximum of lambda (exact for the
    piecewise-constant field)."""
    rng = np.random.default_rng(seed)
    centers = field.cell_centers()
    in_region = region.contains(centers)
    lam_cells = np.exp(field.design_matrix() @ params.beta)
    lam_cells = np.where(in_region, lam_cells, 0.0)
    total = float(lam_cells.sum() * field.cell_area)
    lam_max = float(lam_cells.max())
    n = int(rng.poisson(total))
    if n == 0 or lam_max == 0.0:
        return IndividualPattern(np.zeros((0, 2)))
    accepted = []
    remaining = n
    while remaining > 0:
        m = max(256, int(remaining * 1.5))
        pts = np.column_stack([
            rng.uniform(region.xmin, region.xmax, m),
            rng.uniform(region.ymin, region.ymax, m),
        ])
        ok = region.contains(pts)
        u = rng.uniform(0.0, lam_max, m)
        lam = np.exp(field.covariates_at(pts) @ params.beta)
        ok &= u < lam
        pts = pts[ok]
        take = pts[:remaining]
        if len(take):
            accepted.append(take)
            remaining -= len(take)
    return IndividualPattern(np.vstack(accepted))


def simulate_observation(pattern: IndividualPattern, design: SurveyDesign,
                         params: ModelParams, seed) -> ObservationSet:
    """Thin the pattern through both observation processes.

    Requires a non-overlapping design so each individual is eligible for at
    most one unit. Detected DS individuals record the exact distance to
    their unit; captured CR individuals record the trap id.
    """
    ok, pairs = check_nonoverlap(design)
    if not ok:
        raise ConfigError(f"design has overlapping regions: {pairs}")
    rng = np.random.default_rng(seed)
    pts = pattern.locations
    ds_unit, ds_dist, ds_loc = [], [], []
    cr_unit, cr_loc = [], []
    for reg in design.regions:
        if pattern.n == 0:
            break
        inside = np.flatnonzero(reg.contains(pts))
        if len(inside) == 0:
            continue
        if reg.is_ds:
            d = reg.distance(pts[inside])
            p = np.exp(-d ** 2 / params.phi)
        else:
            d = None
            p = np.full(len(inside), params.theta)
        hit = rng.random(len(inside)) < p
        taken = inside[hit]
        if reg.is_ds:
            ds_unit.extend([reg.unit.id] * len(taken))
            ds_dist.extend(d[hit].tolist())
            ds_loc.extend(pts[taken].tolist())
        else:
            cr_unit.extend([reg.unit.id] * len(taken))
            cr_loc.extend(pts[taken].tolist())
    return ObservationSet(
        ds_unit=np.array(ds_unit, dtype=object),
        ds_distance=np.array(ds_dist, dtype=float),
        cr_unit=np.array(cr_unit, dtype=object),
        ds_loc=np.array(ds_loc, dtype=float).reshape(-1, 2),
        cr_loc=np.array(cr_loc, dtype=float).reshape(-1, 2),
    )


def degrade_to_partial(obs: ObservationSet) -> ObservationSet:
    """Drop true locations: DS keeps (unit, distance), CR keeps the trap id.
    Idempotent."""
    return replace(obs, ds_loc=None, cr_loc=None)


def aggregate_counts(obs: ObservationSet, partitions: PartitionGrid,
                     design: SurveyDesign) -> np.ndarray:
    """Observed individuals per partition cell.

    Each observation is assigned to the cell containing its unit's
    reference point (the point/trap location, or the transect midpoint),
    so totals are conserved and land only in sampled cells.
    """
    points = np.array([r.unit.reference_point for r in design.regions])
    ref_cell = partitions.cell_index(points.reshape(-1, 2))
    unit_ids = (*obs.ds_unit, *obs.cr_unit)
    unit = design.positions(unit_ids)
    if (unit < 0).any():
        raise DataError(f"unknown unit id {unit_ids[np.argmax(unit < 0)]!r}")
    return np.bincount(ref_cell[unit], minlength=partitions.n_cells)


DS_SOURCE = "ds"
CR_SOURCE = "cr"


def save_observations(obs: ObservationSet, path) -> None:
    """Write `source,unit_id,distance[,x,y]` rows; distance empty for CR."""
    rows = [[DS_SOURCE, u, float(d)]
            for u, d in zip(obs.ds_unit, obs.ds_distance)]
    rows += [[CR_SOURCE, u, ""] for u in obs.cr_unit]
    header = ["source", "unit_id", "distance"]
    if obs.has_locations:
        header += ["x", "y"]
        for row, xy in zip(rows, np.vstack([obs.ds_loc, obs.cr_loc])):
            row += xy.tolist()
    _write_csv(path, header, rows)


def load_observations(path) -> ObservationSet:
    """Read an observation file; x,y columns are optional."""
    rows = _read_csv(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise DataError(f"{path}: empty observation file")
    header = [h.lower() for h in header]
    if header[:3] != ["source", "unit_id", "distance"]:
        raise DataError(f"{path}: expected header starting 'source,unit_id,distance'")
    with_loc = header[3:] == ["x", "y"]
    if not with_loc and len(header) != 3:
        raise DataError(f"{path}: unrecognized columns {header[3:]}")
    ds_unit, ds_dist, ds_loc, cr_unit, cr_loc = [], [], [], [], []
    for lineno, parts in rows:
        if len(parts) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        source, uid, dist_s = parts[:3]
        loc = None
        if with_loc:
            try:
                loc = (float(parts[3]), float(parts[4]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad location "
                                f"{parts[3]!r}, {parts[4]!r}") from exc
        if source == DS_SOURCE:
            try:
                d = float(dist_s)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad distance {dist_s!r}") from exc
            ds_unit.append(uid)
            ds_dist.append(d)
            ds_loc.append(loc)
        elif source == CR_SOURCE:
            if dist_s:
                raise DataError(f"{path}:{lineno}: CR rows must leave distance empty")
            cr_unit.append(uid)
            cr_loc.append(loc)
        else:
            raise DataError(f"{path}:{lineno}: unknown source {source!r}")
    return ObservationSet(
        ds_unit=np.array(ds_unit, dtype=object),
        ds_distance=np.array(ds_dist, dtype=float),
        cr_unit=np.array(cr_unit, dtype=object),
        ds_loc=np.array(ds_loc, dtype=float).reshape(-1, 2) if with_loc else None,
        cr_loc=np.array(cr_loc, dtype=float).reshape(-1, 2) if with_loc else None,
    )


def save_pattern(pattern: IndividualPattern, path) -> None:
    _write_csv(path, ("x", "y"), pattern.locations.tolist())
