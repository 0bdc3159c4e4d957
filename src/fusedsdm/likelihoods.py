"""The five competing log-likelihoods, in one form.

All five model one Poisson point process thinned by detection (DS) or
capture (CR), with one working parameter vector (beta, log phi, logit
theta); they differ only in how observations are grouped. Over groups g
with counts n_g and measures m_g each log-likelihood is

    sum_{n_g > 0} n_g log(mu_g / m_g) - sum_i d_i^2 / phi - log n!
        - sum_{g exposed} mu_g,    mu_g = D_g + U_g + theta T_g,

where D, U and T sum w * lambda(cell) per group over three prepared
tables: detected (times exp(-d^2/phi)), undetected, and captured (times
theta). Groups with n_g = 0 add exactly 0. The scenarios are data:

* ``complete``       — exact individual locations. The DS regions
  (detected) and CR regions (captured) are the exposed groups; each DS
  observation is a group with one undetected entry at its location, each
  CR observation one with a captured entry (n = m = 1); the recorded
  distances enter sum d^2 / phi.
* ``aggregated-farr``— Poisson counts per sampled partition cell with the
  covariate frozen at the cell centroid: as cos, but every node is
  evaluated at the field cell holding its partition cell's centroid.
* ``aggregated-cos`` — change-of-support Poisson counts: one exposed group
  per sampled partition cell holding the DS and CR nodes inside it
  (m = 1), with the counts' log n!.
* ``fused-region``   — each observed individual contributes the average
  of lambda q over its unit's region: the regions, each counting its
  observations, with its quadrature measure as m.
* ``fused-distance`` — each DS individual contributes the average of
  lambda over the circle (point) or parallel lines (transect) at its
  recorded distance: the regions (counting CR observations) plus one
  group per DS observation whose undetected entries are its line
  support; the recorded distances enter sum d^2 / phi.

lambda is constant within a field cell, so every table merges its nodes
at prepare time into one entry per (group, field cell): 85k CR and 126k
line nodes become about 1.3k and 20k entries on a default-study
replicate. The line supports are laid out as one row of template nodes
per DS observation (``_line_nodes``), and each row is merged by sorting
its own cells; only rows that reach past the study region or the field
grid, and every row of a masked region, test their nodes one by one.
Detected tables keep their nodes' distances, one run of nodes per entry,
and sum w * exp(-d^2/phi) over each run before lambda multiplies it.
lambda is computed only on the field cells that a spec's tables touch.
The region entries depend on the design and not on the data
(``design_tables``), so the process keeps the few most recently used, and
every spec of the same design inputs shares them.

Evaluation is pure: every function is a deterministic function of the
working parameters and the prepared data tables, with observation sums
reduced in a fixed canonical order so results are reproducible bitwise.
Each spec keeps the detected run sums of its last four phi values (the
central-difference Hessian revisits three), matched on phi's bits; a kept
sum has the bits of a fresh one, so no result depends on which phi values
came before.

A log phi at or past ``_EXP_CAP`` (700) evaluates as phi = exp(700), where
every value equals its value at phi = inf (``RateParams`` with eta = 0) to
the bit, so ``fit`` reports phi = inf as log phi = 700.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, field as dc_field, replace
from numbers import Real

import numpy as np

from .covariates import CovariateField, region_of
from .errors import ConfigError, DataError
from .geometry import (
    TRANSECT,
    PartitionGrid,
    StudyRegion,
    SurveyDesign,
    line_template,
    region_nodes,
)
from .pointprocess import ModelParams, ObservationSet

SCENARIO_COMPLETE = "complete"
SCENARIO_FARR = "aggregated-farr"
SCENARIO_COS = "aggregated-cos"
SCENARIO_FUSED_REGION = "fused-region"
SCENARIO_FUSED_DISTANCE = "fused-distance"

# Paper-order scenario labels 1..5.
SCENARIO_ORDER = (
    SCENARIO_COMPLETE,
    SCENARIO_FARR,
    SCENARIO_COS,
    SCENARIO_FUSED_REGION,
    SCENARIO_FUSED_DISTANCE,
)
# The scenarios grouped by DS and CR unit, which share one design table pair.
_BY_UNIT = (SCENARIO_COMPLETE, SCENARIO_FUSED_REGION, SCENARIO_FUSED_DISTANCE)

# Observation-term integrals are clamped here before taking logs, turning
# impossible configurations into large finite penalties instead of NaNs.
_FLOOR = 1e-300
_BIG_NEGATIVE = -1e300
# exp's argument is capped here. A log phi at or past it evaluates as
# phi = exp(_EXP_CAP) = 1e304, where exp(-d^2/phi) is exactly 1 and
# sum d^2 / phi vanishes beside the other terms: the likelihood at
# phi = inf (eta = 0), to the bit.
_EXP_CAP = 700.0


def _sigmoid(x: float) -> float:
    if x >= 0:
        v = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        v = e / (1.0 + e)
    # Keep strictly inside (0, 1) so ModelParams stays constructible even
    # when the optimizer probes extreme logits.
    return min(max(v, 1e-300), 1.0 - 1e-16)


def _exp_clip(x: float) -> float:
    return math.exp(min(x, _EXP_CAP))


@dataclass(frozen=True, eq=False)
class WorkingParams:
    """Unconstrained optimizer scale: beta as-is, log phi, logit theta."""

    beta: np.ndarray
    log_phi: float
    logit_theta: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)

    @property
    def phi(self) -> float:
        return _exp_clip(self.log_phi)

    def to_model(self) -> ModelParams:
        return ModelParams(self.beta.copy(), self.phi,
                           _sigmoid(self.logit_theta))

    @classmethod
    def from_model(cls, params: ModelParams) -> "WorkingParams":
        theta = params.theta
        return cls(params.beta.copy(), math.log(params.phi),
                   math.log(theta) - math.log1p(-theta))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.beta, [self.log_phi, self.logit_theta]])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "WorkingParams":
        v = np.asarray(v, dtype=float)
        if len(v) < 3:
            raise ConfigError("working vector needs >= 1 beta plus log_phi, logit_theta")
        return cls(v[:-2], float(v[-2]), float(v[-1]))

    @property
    def names(self) -> list[str]:
        return [f"beta{i}" for i in range(len(self.beta))] + ["log_phi", "logit_theta"]


@dataclass(frozen=True, eq=False)
class RateParams:
    """Beta, the detection rate eta = 1/phi, and logit theta.

    exp(-eta d^2) is smooth in eta across 0, so this scale holds perfect
    detection (eta = 0, phi = inf) as an ordinary point. ``loglik`` also
    evaluates eta < 0 (phi = 1/eta < 0), outside the model's range, so
    that central differences can be taken at eta = 0.
    """

    beta: np.ndarray
    eta: float
    logit_theta: float

    @property
    def phi(self) -> float:
        return 1.0 / self.eta if self.eta else math.inf

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "RateParams":
        v = np.asarray(v, dtype=float)
        return cls(v[:-2], float(v[-2]), float(v[-1]))


@dataclass(frozen=True)
class QuadratureSettings:
    """How region integrals are discretized.

    ``spacing`` mode lays a midpoint grid per region at
    ``spacing_fraction * radius`` (or the absolute ``spacing`` override);
    ``native`` mode reuses the covariate grid's own cell centers so the
    integrals coincide with exact cell sums.
    """

    mode: str = "spacing"
    spacing_fraction: float = 0.05
    spacing: float | None = None

    def __post_init__(self):
        if self.mode not in ("spacing", "native"):
            raise ConfigError(f"unknown quadrature mode {self.mode!r}")
        for name in ("spacing_fraction", "spacing"):
            value = getattr(self, name)
            if value is None and name == "spacing":
                continue
            if isinstance(value, bool) or not isinstance(value, Real) \
                    or not (math.isfinite(value) and value > 0):
                raise ConfigError(f"quadrature {name} must be a positive "
                                  f"finite number, got {value!r}")


@dataclass(frozen=True, eq=False)
class LikelihoodSpec:
    """Everything a scenario log-likelihood needs besides the parameters.

    Frozen because the prepared tables are cached on first use: data
    changed afterwards would silently be ignored. The design's quadrature
    comes from ``design_tables``, which builds it only for inputs that no
    recently used tables of this process were built from.
    """

    scenario: str
    design: SurveyDesign
    field: CovariateField
    obs: ObservationSet | None = None
    counts: np.ndarray | None = None
    partitions: PartitionGrid | None = None
    region: StudyRegion | None = None
    quadrature: QuadratureSettings = dc_field(default_factory=QuadratureSettings)

    def __post_init__(self):
        if self.scenario not in SCENARIO_ORDER:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.region is None:
            object.__setattr__(self, "region", region_of(self.field))
        self._validate()
        object.__setattr__(self, "_prep", None)

    def _validate(self):
        s = self.scenario
        if s in (SCENARIO_FARR, SCENARIO_COS):
            if self.counts is None or self.partitions is None:
                raise DataError(f"{s} needs per-cell counts and a partition grid")
            counts = np.asarray(self.counts)
            if len(counts) != self.partitions.n_cells:
                raise DataError("counts length does not match the partition grid")
            if (counts < 0).any():
                raise DataError("negative counts rejected")
            if (counts[~self.partitions.sampled] != 0).any():
                raise DataError("nonzero count in an unsampled partition")
            return
        if self.obs is None:
            raise DataError(f"{s} needs an ObservationSet")
        if s == SCENARIO_COMPLETE and not self.obs.has_locations:
            raise DataError(
                "complete-data likelihood needs true locations "
                "(x,y columns are missing from the observations)"
            )
        # Every referenced unit must exist and be of its survey's kind. The
        # checks run over all observations at once; the ones they flag are
        # checked again one by one, in order, and the first raises.
        # An unknown id's position, -1, reads the appended entries.
        regions = self.design.regions
        is_ds = np.array([r.is_ds for r in regions] + [False])
        unit = self.design.positions(self.obs.ds_unit)
        d = np.asarray(self.obs.ds_distance)
        ok = is_ds[unit] & (d >= 0.0) & (d < math.inf)
        if s == SCENARIO_FUSED_DISTANCE:
            ok &= d <= np.array([r.radius for r in regions] + [0.0])[unit]
        for i in np.flatnonzero(~ok):
            uid, d = self.obs.ds_unit[i], self.obs.ds_distance[i]
            r = self.design.region_by_id(uid)
            if not r.is_ds:
                raise DataError(f"DS observation references non-DS unit {uid!r}")
            if not 0.0 <= d < math.inf:
                raise DataError(f"recorded distance {d} of unit {uid!r} "
                                f"must be finite and >= 0")
            if s == SCENARIO_FUSED_DISTANCE and d > r.radius:
                raise DataError(
                    f"recorded distance {d} exceeds truncation radius "
                    f"{r.radius} of unit {uid!r}"
                )
        unit = self.design.positions(self.obs.cr_unit)
        for i in np.flatnonzero(is_ds[unit] | (unit < 0)):
            uid = self.obs.cr_unit[i]
            if self.design.region_by_id(uid).is_ds:
                raise DataError(f"CR observation references non-trap unit {uid!r}")

    def prepared(self) -> "_Prepared":
        if self._prep is None:
            object.__setattr__(self, "_prep", _Prepared(self))
        return self._prep


def _round_robin(size: np.ndarray) -> np.ndarray:
    """Order dealing a list, sorted into runs of ``size`` entries (one run
    per group), round-robin over the runs: every group's first entry, then
    every group's second, ... np.bincount then rarely adds to one group
    twice in a row, which would wait on the previous add, and still adds
    each group's entries in their order."""
    rank = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    # A stable sort by rank keeps the group order among equal ranks; small
    # unsigned ranks sort in linear time.
    rank = rank.astype(np.min_scalar_type(size.max(initial=0)))
    return np.argsort(rank, kind="stable")


@dataclass(frozen=True, eq=False)
class _GroupedTable:
    """Quadrature nodes summed per group: w * lambda[cell] * exp(-d2/phi).

    lambda is constant within a field cell, so ``merged`` joins the nodes
    into one entry per distinct (group, cell) (``cell``, ``group``), and
    lambda is gathered once per entry. Without ``d2`` an entry weighs the
    sum of its nodes' weights, and ``dealt`` joins such tables and deals
    their entries round-robin over the groups. With ``d2`` the nodes stay
    (``w``, ``d2``), one run per entry starting at ``first``, and each
    evaluation first sums their w * exp(-d2/phi) per run. The nodes of a
    disk share their grid offsets, so few distinct distances recur:
    exp(-d2/phi) is taken once per distinct value (``levels``, sorted) and
    gathered to the nodes by ``level``. Every sum is taken in a fixed order,
    so results are bitwise reproducible.
    """

    cell: np.ndarray
    group: np.ndarray
    n_groups: int
    w: np.ndarray
    d2: np.ndarray | None = None
    first: np.ndarray | None = None
    levels: np.ndarray | None = None
    level: np.ndarray | None = None

    @classmethod
    def merged(cls, w, cell, group, n_groups: int, d2=None) -> "_GroupedTable":
        """One entry per distinct (group, cell), in (group, cell) order."""
        # Stable sort by (group, cell); each run of equal keys is one entry.
        # Temporaries stay one int64 array plus a mask: the line table has
        # 1e5 nodes.
        key = group * (int(cell.max(initial=0)) + 1) + cell
        order = np.argsort(key, kind="stable")
        key = key[order]
        run_start = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=run_start[1:])
        del key
        first = np.flatnonzero(run_start)
        head = order[first]
        if d2 is not None:
            d2 = d2[order]
            levels, level = np.unique(d2, return_inverse=True)
            return cls(cell[head], group[head], n_groups, w[order], d2, first,
                       levels, level)
        return cls(cell[head], group[head], n_groups,
                   np.add.reduceat(w[order], first))

    @classmethod
    def dealt(cls, n_groups: int, *tables) -> "_GroupedTable":
        """The entries of ``tables`` (without distances) one table after
        another, dealt round-robin over ``n_groups`` groups. Each group
        keeps its entries' order, so its sum keeps its bits."""
        cell, group, w = (np.concatenate([getattr(t, name) for t in tables])
                          for name in ("cell", "group", "w"))
        deal = _round_robin(np.bincount(group, minlength=n_groups))
        return cls(cell[deal], group[deal], n_groups, w[deal])

    def level_weights(self, phi: float) -> np.ndarray:
        """exp(-d2/phi) at each distinct distance; d2 / -phi is -(d2 / phi)
        to the bit, in one pass."""
        return np.exp(np.divide(self.levels, -phi))

    def weights(self, phi: float = 1.0, order: int = 0,
                levels_exp: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-entry weights: ``w`` without distances; with them the run
        sums of w * (-d2)^j * exp(-d2/phi) for j = 0..order, the j-th
        derivatives in eta = 1/phi. ``levels_exp`` is ``level_weights(phi)``
        when already at hand. exp of the same double gives the same bits,
        so the sums match those of exp(-d2/phi) taken per node."""
        if self.d2 is None:
            return [self.w]
        if levels_exp is None:
            levels_exp = self.level_weights(phi)
        q = levels_exp[self.level]
        q *= self.w
        out = [np.add.reduceat(q, self.first)]
        for _ in range(order):
            q *= -self.d2
            out.append(np.add.reduceat(q, self.first))
        return out

    def group_sums(self, entry_values: np.ndarray) -> np.ndarray:
        return np.bincount(self.group, weights=entry_values,
                           minlength=self.n_groups)

    def sums(self, lam: np.ndarray, phi: float = 1.0) -> np.ndarray:
        """Per-group sums, with ``lam`` the intensity on the table's cells."""
        return self.group_sums(self.weights(phi)[0] * lam[self.cell])


@dataclass(frozen=True, eq=False)
class _RegionNodes:
    """Quadrature nodes of a list of regions, before grouping: positions,
    weights, field cells, each node's region, squared distances to the unit
    (None without detection), and each region's quadrature measure."""

    xy: np.ndarray
    w: np.ndarray
    cell: np.ndarray
    region_index: np.ndarray
    d2: np.ndarray | None
    measure: np.ndarray

    @classmethod
    def build(cls, regions, field, region, quad, detection: bool):
        if quad.mode == "native":
            grid = {"grid": (field.x0, field.y0, field.dx, field.dy)}
        else:
            grid = {"spacing": [
                quad.spacing if quad.spacing is not None
                else quad.spacing_fraction * reg.radius for reg in regions]}
        xy, w, index, d2, measure = region_nodes(regions, within=region,
                                                 **grid)
        return cls(xy, w, field.cell_index(xy), index,
                   d2 if detection else None, measure)


@dataclass(frozen=True, eq=False)
class DesignTables:
    """The design's part of a spec's prepared likelihood: the DS and CR
    region quadrature, merged into grouped tables, with the inputs they
    were built from.

    ``tables`` maps each scenario to its detected table and its captured
    entries, not yet dealt: a spec appends its data's entries (complete's
    capture points) and deals once. The DS and CR regions are the groups
    of the by-unit scenarios; farr and cos group by sampled partition cell.
    ``max_d2`` is the largest DS node d^2, and ``ds_measure``/``cr_measure``
    the regions' quadrature measures.
    """

    design: SurveyDesign
    field: CovariateField
    region: StudyRegion
    quadrature: QuadratureSettings
    partitions: PartitionGrid | None
    tables: dict
    max_d2: float
    ds_measure: np.ndarray
    cr_measure: np.ndarray

    def _serves(self, design, field, region, quadrature, partitions,
                scenarios) -> bool:
        """Whether these tables hold ``scenarios`` built from these inputs:
        the same design and field objects, an equal region and quadrature,
        and (farr, cos) equal partitions."""
        return (self.design is design and self.field is field
                and self.region == region and self.quadrature == quadrature
                and self.tables.keys() >= set(scenarios)
                and (_same_partitions(self.partitions, partitions) or not any(
                    s in (SCENARIO_FARR, SCENARIO_COS) for s in scenarios)))


def _same_partitions(a: PartitionGrid | None, b: PartitionGrid | None) -> bool:
    """Whether two partition grids tile an equal region alike and flag the
    same cells sampled: ``run_study`` builds a new grid on every call."""
    return a is b or (a is not None and b is not None and a.region == b.region
                      and (a.nx, a.ny) == (b.nx, b.ny)
                      and np.array_equal(a.sampled, b.sampled))


# How many of the most recently used design tables the process keeps.
_RECENT_TABLES = 4
_recent: list[DesignTables] = []
_recent_lock = threading.Lock()


def design_tables(design: SurveyDesign, field: CovariateField,
                  region: StudyRegion, quadrature: QuadratureSettings,
                  partitions: PartitionGrid | None = None,
                  scenarios=SCENARIO_ORDER) -> DesignTables:
    """The design's quadrature tables for ``scenarios``; farr and cos need
    ``partitions``.

    Kept tables that hold ``scenarios`` and were built from these inputs
    serve; otherwise new ones are built and kept, up to the four most
    recently used. The kept tables hold their inputs, so no identity match
    can meet a freed object's reused id, and a failed build keeps nothing.
    A by-unit scenario builds the tables of all three, which share one
    pair. Raises ConfigError naming a unit whose region holds no quadrature
    node inside the study region.
    """
    inputs = (design, field, region, quadrature, partitions)
    with _recent_lock:
        for k, tables in enumerate(_recent):
            if tables._serves(*inputs, scenarios):
                _recent.insert(0, _recent.pop(k))
                return tables
    ds = _RegionNodes.build(design.ds_regions, field, region, quadrature,
                            detection=True)
    cr = _RegionNodes.build(design.cr_regions, field, region, quadrature,
                            detection=False)
    n_ds, n_exposed = len(ds.measure), len(ds.measure) + len(cr.measure)
    tables = {}
    for scenario in scenarios:
        if scenario in (SCENARIO_FARR, SCENARIO_COS):
            if partitions is None:
                raise ConfigError(f"{scenario} tables need a partition grid")
            tables[scenario] = _by_cell_tables(scenario, partitions, field,
                                               ds, cr)
        elif SCENARIO_COMPLETE not in tables:
            tables.update(dict.fromkeys(_BY_UNIT, (
                _GroupedTable.merged(ds.w, ds.cell, ds.region_index,
                                     n_exposed, ds.d2),
                _GroupedTable.merged(cr.w, cr.cell, n_ds + cr.region_index,
                                     n_exposed))))
    tables = DesignTables(*inputs, tables,
                          max(0.0, float(ds.d2.max(initial=0.0))),
                          ds.measure, cr.measure)
    with _recent_lock:
        _recent.insert(0, tables)
        del _recent[_RECENT_TABLES:]
    return tables


def _by_cell_tables(scenario, partitions, field, ds, cr):
    """Groups are the sampled partition cells; nodes in unsampled
    partitions are dropped."""
    sampled = np.flatnonzero(partitions.sampled)
    pos = np.full(partitions.n_cells, -1, dtype=int)
    pos[sampled] = np.arange(len(sampled))
    centroid_cell = field.cell_index(partitions.cell_centers()[sampled])

    def grouped(nodes):
        group = pos[partitions.cell_index(nodes.xy)]
        keep = group >= 0
        group = group[keep]
        cell = centroid_cell[group] if scenario == SCENARIO_FARR \
            else nodes.cell[keep]
        return keep, cell, group

    keep, cell, group = grouped(ds)
    detected = _GroupedTable.merged(ds.w[keep], cell, group, len(sampled),
                                    ds.d2[keep])
    keep, cell, group = grouped(cr)
    return detected, _GroupedTable.merged(cr.w[keep], cell, group,
                                          len(sampled))


def _line_nodes(spec: LikelihoodSpec, ds_order: np.ndarray,
                ds_upos: np.ndarray):
    """Each DS observation's line support, merged by field cell: (w, cell,
    observation index in canonical order), one entry per distinct
    (observation, cell) in that order. Supports are intersected with the
    study region (individuals only exist inside it) and renormalized: an
    entry weighs ``np.add.reduceat`` over its nodes' equal 1/n_keep.

    Each observation is one row of its unit's template nodes at its
    distance: the point units' rows in one block, each transect's rows in
    a block of their own. A row whose bounding box (the unit's anchors
    +- d) lies within the study region and the field grid keeps every node
    and takes ``CovariateField.cell_of`` unchecked. The other rows, and
    every row of a masked region, test each node with
    ``StudyRegion.contains`` and ``CovariateField.off_grid``, so a support
    outside the region or off the grid raises ``cell_index``'s DataError
    for the same first unit, distance and location as node by node. Each
    row then sorts its own cells, and equal neighbours form one entry."""
    dist = spec.obs.ds_distance[ds_order]
    upos = ds_upos[ds_order]
    units = [r.unit for r in spec.design.ds_regions]
    blocks = []   # (rows, anchors x and y, directions x and y)
    point = np.array([u.kind != TRANSECT for u in units], dtype=bool)
    rows = np.flatnonzero(point[upos])
    if len(rows):
        loc = np.zeros((len(units), 2))
        loc[point] = [u.xy for u in units if u.kind != TRANSECT]
        # Every circle has the same directions.
        _, direction = line_template(units[upos[rows[0]]])
        blocks.append((rows, *loc[upos[rows]].T[:, :, None],
                       *direction.T[:, None, :]))
    # The canonical order puts each unit's observations in one run.
    starts = np.flatnonzero(np.diff(upos, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(upos))):
        if not point[upos[lo]]:
            anchor, direction = line_template(units[upos[lo]])
            blocks.append((np.arange(lo, hi), *anchor.T[:, None, :],
                           *direction.T[:, None, :]))

    n_keep = np.zeros(len(upos), dtype=int)
    off = np.zeros(len(upos), dtype=bool)
    cells = []
    for rows, ax, ay, ux, uy in blocks:
        block_cells, n_keep[rows], off[rows] = _support_rows(
            spec, ax, ay, ux, uy, dist[rows])
        cells.append(block_cells)
    if not n_keep.all() or off.any():
        _raise_support_error(spec, units, dist, upos, n_keep, off)

    w, cell, group = [np.zeros(0)], [np.zeros(0, dtype=int)], \
        [np.zeros(0, dtype=int)]
    for (rows, *_), block_cells in zip(blocks, cells):
        start = np.ones(block_cells.shape, dtype=bool)
        np.not_equal(block_cells[:, 1:], block_cells[:, :-1], out=start[:, 1:])
        keep = n_keep[rows]
        kept = np.arange(block_cells.shape[1]) < keep[:, None]
        whole = kept.all()
        start &= kept
        group.append(np.repeat(rows, np.count_nonzero(start, axis=1)))
        block_cells, start = ((block_cells.ravel(), start.ravel()) if whole
                              else (block_cells[kept], start[kept]))
        first = np.flatnonzero(start)
        w.append(np.add.reduceat(np.repeat(1.0 / keep, keep), first))
        cell.append(block_cells[first])
    w, cell, group = (np.concatenate(a) for a in (w, cell, group))
    if (np.diff(group) < 0).any():   # transects between point units
        order = np.argsort(group, kind="stable")
        w, cell, group = w[order], cell[order], group[order]
    return w, cell, group


def _support_rows(spec, ax, ay, ux, uy, dist):
    """One block of line supports, a row of nodes (ax + d ux, ay + d uy)
    per distance d of ``dist``: anchors per row (n, 1) or per node (1, L),
    directions per node (1, L). Returns each row's kept cells sorted, with
    ``n_cells`` in place of the dropped nodes after them, its kept node
    count, and whether a kept node lies off the field grid."""
    field, region = spec.field, spec.region
    d = dist[:, None]
    x, y = ax + d * ux, ay + d * uy
    # |d * u| <= d * max|u| survives rounding, as do the sums below, so
    # every node of a row lies within lo..hi.
    rx, ry = dist * np.abs(ux).max(), dist * np.abs(uy).max()
    lo = np.column_stack([ax.min(axis=1) - rx, ay.min(axis=1) - ry])
    hi = np.column_stack([ax.max(axis=1) + rx, ay.max(axis=1) + ry])
    whole = ~(field.off_grid(*lo.T) | field.off_grid(*hi.T))
    if region.mask is None:
        whole &= region.contains(lo) & region.contains(hi)
    else:
        whole[:] = False
    cells = field.cell_of(x, y)
    n_keep = np.full(len(dist), x.shape[1])
    off = np.zeros(len(dist), dtype=bool)
    part = np.flatnonzero(~whole)
    if len(part):
        px, py = x[part], y[part]
        keep = region.contains(np.column_stack([px.ravel(), py.ravel()])
                               ).reshape(px.shape)
        n_keep[part] = keep.sum(axis=1)
        off[part] = (field.off_grid(px, py) & keep).any(axis=1)
        cells[part] = np.where(keep, cells[part], field.n_cells)
    cells.sort(axis=1)
    return cells, n_keep, off


def _raise_support_error(spec, units, dist, upos, n_keep, off):
    """The DataError of the first unit with a support outside the region
    or a kept node off the field grid: an empty support first, as node by
    node."""
    unit = upos[np.argmax((n_keep == 0) | off)]
    mine = upos == unit
    empty = mine & (n_keep == 0)
    if empty.any():
        k = int(np.argmax(empty))
        raise DataError(
            f"observed-location support for unit {units[unit].id!r} at "
            f"distance {dist[k]} lies outside the region"
        )
    k = int(np.argmax(mine & off))
    anchor, direction = line_template(units[unit])
    pts = anchor + dist[k] * direction
    spec.field.cell_index(pts[spec.region.contains(pts)])


def _canonical_order(upos, loc, *keys) -> np.ndarray:
    """Canonical observation order: by unit position, then ``keys`` (last
    first), then location."""
    if loc is not None and len(loc):
        keys = (loc[:, 1], loc[:, 0]) + keys
    return np.lexsort(keys + (upos,))


def _point_nodes(field: CovariateField, loc: np.ndarray, first_group: int):
    """One unit-weight entry per location, each its own group."""
    return (np.ones(len(loc)), field.cell_index(loc),
            first_group + np.arange(len(loc)))


_NO_ENTRIES = (np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
# How many phi values' detected run sums a spec keeps: the central-difference
# Hessian visits three, its centre and a step either side.
_RECENT_PHI = 4


class _Prepared:
    """One spec's likelihood as data (the form in the module docstring).

    Tables ``detected``, ``undetected`` and ``captured`` over one group
    index; ``n``/``m`` are the counts and measures of the ``observed``
    groups (n_g > 0); the first ``n_exposed`` groups are exposed. The tables
    number the touched field ``cells`` 0, 1, ..., and ``X`` holds their rows.
    The region entries come from ``design_tables``; the data's entries
    (one per location, or ``_line_nodes``' merged supports) follow them.
    ``entry_group`` and ``entry_X`` hold the group and covariate row of
    every entry of the three tables in turn.
    """

    def __init__(self, spec: LikelihoodSpec):
        regions = design_tables(spec.design, spec.field, spec.region,
                                spec.quadrature, spec.partitions,
                                (spec.scenario,))
        layout = self._by_cell if spec.scenario in (SCENARIO_FARR, SCENARIO_COS) \
            else self._by_unit
        undetected, captured, n, m, recorded = layout(spec, regions)
        # The largest d^2 of every DS node and recorded distance, read or not.
        self.max_d2 = max(regions.max_d2, float(recorded.max(initial=0.0)))

        detected, region_captured = regions.tables[spec.scenario]
        undetected, captured = (_GroupedTable(cell, group, len(n), w)
                                for w, cell, group in (undetected, captured))
        tables = (replace(detected, n_groups=len(n)),
                  _GroupedTable.dealt(len(n), undetected),
                  _GroupedTable.dealt(len(n), region_captured, captured))
        touched = np.zeros(spec.field.n_cells, dtype=bool)
        for table in tables:
            touched[table.cell] = True
        self.cells = np.flatnonzero(touched)
        self.X = spec.field.design_matrix()[self.cells]
        compact = np.cumsum(touched) - 1
        self.detected, self.undetected, self.captured = tables = [
            replace(table, cell=compact[table.cell]) for table in tables]
        self.entry_group = np.concatenate([t.group for t in tables])
        self.entry_X = self.X[np.concatenate([t.cell for t in tables])]
        self.observed = np.flatnonzero(n)
        self.n, self.m = n[self.observed], m[self.observed]
        self._recent_phi = []

    def detection(self, phi: float, order: int = 0) -> tuple:
        """``detected.weights(phi, order)``, kept for the last
        ``_RECENT_PHI`` phi values computed, told apart by their bits (0.0 from
        -0.0). An entry keeps its level exponentials, so a higher order at
        a kept phi adds the run sums without taking exp again. Entries are
        replaced, never changed, and their arrays are read-only: threads
        racing on one spec can only lose an entry and compute it again."""
        key = struct.pack("d", phi)
        recent = self._recent_phi
        hit = next((entry for entry in recent if entry[0] == key), None)
        if hit is not None and len(hit[2]) > order:
            return hit[2]
        levels_exp = (self.detected.level_weights(phi) if hit is None
                      else hit[1])
        sums = tuple(self.detected.weights(phi, order, levels_exp))
        for a in (levels_exp, *sums):
            a.flags.writeable = False
        self._recent_phi = [(key, levels_exp, sums)] + [
            entry for entry in recent if entry[0] != key][:_RECENT_PHI - 1]
        return sums

    def _by_cell(self, spec, regions):
        """Groups are the sampled partition cells; the data add no
        entries."""
        n = np.asarray(spec.counts)[spec.partitions.sampled].astype(float)
        self.n_exposed, self.obs_d2 = len(n), np.zeros(0)
        self.log_n_factorial = float(np.array(
            [math.lgamma(k + 1.0) for k in n]).sum())
        return _NO_ENTRIES, _NO_ENTRIES, n, np.ones(len(n)), np.zeros(0)

    def _by_unit(self, spec, regions):
        """Groups are the DS regions, the CR regions, then (complete,
        fused-distance) the DS and (complete) the CR observations in
        canonical order."""
        obs, scenario = spec.obs, spec.scenario
        n_ds_regions = len(regions.ds_measure)
        self.n_exposed = n_ds_regions + len(regions.cr_measure)
        # Positions among the DS and among the CR regions, in design order.
        is_ds = np.array([r.is_ds for r in spec.design.regions], dtype=bool)
        rank = np.where(is_ds, np.cumsum(is_ds), np.cumsum(~is_ds)) - 1
        ds_upos = rank[spec.design.positions(obs.ds_unit)]
        cr_upos = rank[spec.design.positions(obs.cr_unit)]
        ds_order = _canonical_order(ds_upos, obs.ds_loc, obs.ds_distance)
        cr_order = _canonical_order(cr_upos, obs.cr_loc)
        recorded = obs.ds_distance[ds_order] ** 2

        self.obs_d2 = np.zeros(0) if scenario == SCENARIO_FUSED_REGION \
            else recorded
        # Each observed individual is its own term: no log n!.
        self.log_n_factorial = 0.0
        n = np.zeros(self.n_exposed)
        if scenario == SCENARIO_FUSED_REGION:
            n[:n_ds_regions] = np.bincount(ds_upos, minlength=n_ds_regions)
        if scenario != SCENARIO_COMPLETE:
            n[n_ds_regions:] = np.bincount(cr_upos,
                                           minlength=len(regions.cr_measure))
        undetected, captured, points = _NO_ENTRIES, _NO_ENTRIES, 0
        if scenario == SCENARIO_COMPLETE:
            undetected = _point_nodes(spec.field, obs.ds_loc[ds_order],
                                      self.n_exposed)
            captured = _point_nodes(spec.field, obs.cr_loc[cr_order],
                                    self.n_exposed + obs.n_ds)
            points = obs.n_ds + obs.n_cr
        if scenario == SCENARIO_FUSED_DISTANCE:
            w, cell, group = _line_nodes(spec, ds_order, ds_upos)
            undetected, points = (w, cell, self.n_exposed + group), obs.n_ds
        n = np.concatenate([n, np.ones(points)])
        m = np.concatenate([regions.ds_measure, regions.cr_measure,
                            np.ones(points)])
        return undetected, captured, n, m, recorded


@dataclass(frozen=True)
class LoglikTerms:
    """Observation-sum and exposure halves: loglik = observation - exposure."""

    observation: float
    exposure: float

    @property
    def total(self) -> float:
        v = self.observation - self.exposure
        return v if np.isfinite(v) else _BIG_NEGATIVE


def _terms(p: _Prepared, mu: np.ndarray, phi: float) -> LoglikTerms:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = np.maximum(mu[p.observed] / p.m, _FLOOR)
        # +inf once phi underflows to 0.
        distance = float((p.obs_d2 / phi).sum())
        observation = (float(np.sum(p.n * np.log(mean))) - distance
                       - p.log_n_factorial)
    return LoglikTerms(observation, float(mu[:p.n_exposed].sum()))


def loglik_terms(wp: WorkingParams | RateParams,
                 spec: LikelihoodSpec) -> LoglikTerms:
    """Observation/exposure decomposition of the spec's scenario:
    sum_g n_g log(mu_g / m_g) - sum d^2/phi - log n! and sum of exposed mu_g."""
    p = spec.prepared()
    phi, theta = wp.phi, _sigmoid(wp.logit_theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.exp(p.X @ wp.beta)
        mu = (p.detected.group_sums(p.detection(phi)[0]
                                    * lam[p.detected.cell])
              + p.undetected.sums(lam) + theta * p.captured.sums(lam))
    return _terms(p, mu, phi)


def loglik_derivatives(rp: RateParams, spec: LikelihoodSpec):
    """``loglik`` at ``rp`` with its gradient and Hessian in
    (beta, eta, theta), theta = sigmoid(logit theta) on its own scale.

    mu_g sums entries a_e * lambda(cell_e): d/d beta multiplies an entry by
    its cell's row of ``X``, d/d eta takes the detected runs' -d^2 and d^4
    passes, d mu_g / d theta is T_g, and sum d^2 * eta is linear in eta.
    With c_g = n_g / mu_g on the observed groups, less 1 on the exposed
    ones, the gradient is sum_g c_g mu_g' and the Hessian
    sum_g c_g mu_g'' - sum_obs n_g mu_g' mu_g'^T / mu_g^2; groups at the
    floor add nothing, as to the value.
    """
    p = spec.prepared()
    theta, k = _sigmoid(rp.logit_theta), p.X.shape[1]
    tables = (p.detected, p.undetected, p.captured)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.exp(p.X @ rp.beta)
        lam_d, lam_u, lam_c = (lam[t.cell] for t in tables)
        w0, w1, w2 = p.detection(rp.phi, 2)
        D, U, T = w0 * lam_d, p.undetected.w * lam_u, p.captured.w * lam_c
        mu = (p.detected.group_sums(D) + p.undetected.group_sums(U)
              + theta * p.captured.group_sums(T))
        value = _terms(p, mu, rp.phi).total
        c = np.zeros(len(mu))
        c[:p.n_exposed] = -1.0
        mu_obs = mu[p.observed]
        live = mu_obs / p.m > _FLOOR
        c[p.observed[live]] += p.n[live] / mu_obs[live]

        # Per entry of the three tables: its term of mu, and that term's
        # derivatives in eta (first and second) and theta.
        pad_du, pad_uc = np.zeros(len(D) + len(U)), np.zeros(len(U) + len(T))
        term = np.concatenate([D, U, theta * T])
        d_eta = np.concatenate([w1 * lam_d, pad_uc])
        d_eta2 = np.concatenate([w2 * lam_d, pad_uc])
        d_theta = np.concatenate([pad_du, T])
        group, X = p.entry_group, p.entry_X
        jac = np.column_stack([
            np.bincount(group, col, len(mu))
            for col in (*(X * term[:, None]).T, d_eta, d_theta)])
        grad = jac.T @ c
        grad[k] -= float(p.obs_d2.sum())
        ce = c[group]
        Xc = X * ce[:, None]
        hess = np.zeros((k + 2, k + 2))
        hess[:k, :k] = Xc.T @ (X * term[:, None])
        hess[:k, k] = hess[k, :k] = Xc.T @ d_eta
        hess[:k, k + 1] = hess[k + 1, :k] = Xc.T @ d_theta
        # Not a BLAS dot: threaded at this length, it is slow next to
        # other busy processes and its bits depend on the thread count.
        hess[k, k] = np.einsum("i,i->", ce, d_eta2)
        J = jac[p.observed[live]]
        hess -= (J * (p.n[live] / mu_obs[live] ** 2)[:, None]).T @ J
    return value, grad, hess


def loglik(wp: WorkingParams | RateParams, spec: LikelihoodSpec) -> float:
    """Log-likelihood of the spec's scenario at the working parameters."""
    return loglik_terms(wp, spec).total

