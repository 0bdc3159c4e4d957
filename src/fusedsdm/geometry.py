"""Planar geometry of the study region and survey design.

Survey units are points, transects (polylines), and traps. Each unit owns a
sampled region: a disk of given radius around a point or trap, or a
perpendicular strip of given half-width around a transect (no end caps).
Quadrature rules are midpoint rules on regular grids clipped to a region,
or equally spaced nodes on an observed-distance support (circle perimeter
or the pair of lines parallel to a transect).

All distances and areas are in flat map units. Objects are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataError

POINT = "point"
TRANSECT = "transect"
TRAP = "trap"
UNIT_KINDS = (POINT, TRANSECT, TRAP)

# Unit kinds that collect distance-sampling detections; traps collect
# capture-recapture captures.
DS_KINDS = (POINT, TRANSECT)
# Nodes of an observed-distance support: around a circle, or split over a
# transect's segments by length.
_LINE_NODES = 128


@dataclass(frozen=True)
class StudyRegion:
    """Axis-aligned study area, optionally restricted by a polygon mask."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    mask: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, self.bbox())):
            raise ConfigError(f"study region bounds must be finite, got "
                              f"{self.bbox()}")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ConfigError("study region bounds must have positive extent")
        if self.mask is not None:
            if len(self.mask) < 3:
                raise ConfigError("mask polygon needs at least 3 vertices")
            vx = np.array([v[0] for v in self.mask])
            vy = np.array([v[1] for v in self.mask])
            if not (np.isfinite(vx).all() and np.isfinite(vy).all()):
                raise ConfigError("mask polygon vertices must be finite")
            eps = 1e-9
            if (vx < self.xmin - eps).any() or (vx > self.xmax + eps).any() \
                    or (vy < self.ymin - eps).any() or (vy > self.ymax + eps).any():
                raise ConfigError("mask polygon must lie within the bounds")

    @classmethod
    def unit_square(cls) -> "StudyRegion":
        return cls(0.0, 0.0, 1.0, 1.0)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        if self.mask is None:
            return self.width * self.height
        return _polygon_area(self.mask)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean membership for an (n, 2) array of locations."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = (
            (pts[:, 0] >= self.xmin) & (pts[:, 0] <= self.xmax)
            & (pts[:, 1] >= self.ymin) & (pts[:, 1] <= self.ymax)
        )
        if self.mask is not None:
            inside &= _polygon_contains(self.mask, pts)
        return inside

    def bbox(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


def _polygon_area(vertices) -> float:
    vx = np.array([v[0] for v in vertices], dtype=float)
    vy = np.array([v[1] for v in vertices], dtype=float)
    return 0.5 * abs(np.sum(vx * np.roll(vy, -1) - np.roll(vx, -1) * vy))


def _polygon_contains(vertices, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over points."""
    vx = np.array([v[0] for v in vertices], dtype=float)
    vy = np.array([v[1] for v in vertices], dtype=float)
    n = len(vx)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for i in range(n):
        j = (i - 1) % n
        crosses = (vy[i] > y) != (vy[j] > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (vx[j] - vx[i]) * (y - vy[i]) / (vy[j] - vy[i]) + vx[i]
        inside ^= crosses & (x < xint)
    return inside


@dataclass(frozen=True, eq=False)
class SurveyUnit:
    """One survey unit: a point, a transect polyline, or a trap."""

    id: str
    kind: str
    xy: np.ndarray  # (2,) for point/trap, (k, 2) with k >= 2 for transect

    def __post_init__(self):
        # Table files strip their fields, so no other id could be read back.
        if not isinstance(self.id, str) or not self.id or self.id != self.id.strip():
            raise ConfigError(f"unit id {self.id!r} must be a non-empty "
                              f"string with no leading or trailing whitespace")
        if self.kind not in UNIT_KINDS:
            raise ConfigError(f"unknown unit kind {self.kind!r}")
        xy = np.asarray(self.xy, dtype=float)
        if not np.isfinite(xy).all():
            raise ConfigError(f"unit {self.id!r} has a non-finite coordinate")
        if self.kind == TRANSECT:
            if xy.ndim != 2 or xy.shape[0] < 2 or xy.shape[1] != 2:
                raise ConfigError(f"transect {self.id!r} needs >= 2 vertices")
            if polyline_length(xy) <= 0:
                raise ConfigError(f"transect {self.id!r} has zero length")
        else:
            if xy.shape != (2,):
                raise ConfigError(f"unit {self.id!r} needs a single (x, y) location")
        object.__setattr__(self, "xy", xy)

    @property
    def reference_point(self) -> np.ndarray:
        """Point/trap location, or the arc-length midpoint of a transect."""
        if self.kind != TRANSECT:
            return self.xy
        return _polyline_point_at(self.xy, 0.5 * polyline_length(self.xy))


def polyline_length(vertices: np.ndarray) -> float:
    d = np.diff(np.asarray(vertices, dtype=float), axis=0)
    return float(np.sqrt((d ** 2).sum(axis=1)).sum())


def _polyline_point_at(vertices: np.ndarray, s: float) -> np.ndarray:
    """Point at arc length s along the polyline."""
    seg = np.diff(vertices, axis=0)
    lens = np.sqrt((seg ** 2).sum(axis=1))
    for i, ell in enumerate(lens):
        if s <= ell or i == len(lens) - 1:
            t = 0.0 if ell == 0 else min(s / ell, 1.0)
            return vertices[i] + t * seg[i]
        s -= ell
    return vertices[-1]


def _segment_projection(pts: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per-point clamped parameter t and distance to segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        t = np.zeros(len(pts))
    else:
        t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    dist = np.sqrt(((pts - proj) ** 2).sum(axis=1))
    return t, dist


def distance_to_unit(s, unit: SurveyUnit) -> float | np.ndarray:
    """Euclidean distance to a point/trap, minimum distance to a transect."""
    pts = np.atleast_2d(np.asarray(s, dtype=float))
    if unit.kind == TRANSECT:
        dmin = np.full(len(pts), np.inf)
        verts = unit.xy
        for i in range(len(verts) - 1):
            _, d = _segment_projection(pts, verts[i], verts[i + 1])
            dmin = np.minimum(dmin, d)
        out = dmin
    else:
        out = np.sqrt(((pts - unit.xy) ** 2).sum(axis=1))
    if np.asarray(s).ndim == 1:
        return float(out[0])
    return out


@dataclass(frozen=True, eq=False)
class SampledRegion:
    """Detection/capture region of one unit: disk or perpendicular strip."""

    unit: SurveyUnit
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ConfigError(f"region radius for {self.unit.id!r} must be "
                              f"finite and > 0, got {self.radius}")

    @property
    def is_ds(self) -> bool:
        return self.unit.kind in DS_KINDS

    @property
    def measure(self) -> float:
        """Analytic area: pi r^2 for disks, 2 w L for strips."""
        if self.unit.kind == TRANSECT:
            return 2.0 * self.radius * polyline_length(self.unit.xy)
        return math.pi * self.radius ** 2

    def bbox(self) -> tuple[float, float, float, float]:
        xy = np.atleast_2d(self.unit.xy)
        r = self.radius
        return (xy[:, 0].min() - r, xy[:, 1].min() - r,
                xy[:, 0].max() + r, xy[:, 1].max() + r)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.unit.kind == TRANSECT:
            # Strip membership: perpendicular foot on some segment interior.
            inside = np.zeros(len(pts), dtype=bool)
            dmin = np.full(len(pts), np.inf)
            verts = self.unit.xy
            for i in range(len(verts) - 1):
                t, d = _segment_projection(pts, verts[i], verts[i + 1])
                inside |= (t > 0.0) & (t < 1.0) & (d <= self.radius)
                dmin = np.minimum(dmin, d)
            # Include points exactly on the polyline.
            return inside | (dmin <= 1e-12)
        # Two columns added by hand, as the disk pass of region_nodes
        # decides membership too: a row sum over axis 1 costs several
        # times more, with equal bits.
        dx = pts[:, 0] - self.unit.xy[0]
        dy = pts[:, 1] - self.unit.xy[1]
        return dx * dx + dy * dy <= self.radius ** 2

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return np.atleast_1d(distance_to_unit(np.atleast_2d(pts), self.unit))


@dataclass(frozen=True, eq=False)
class SurveyDesign:
    """The full survey layout: all sampled regions, id-addressable."""

    regions: tuple[SampledRegion, ...]

    def __post_init__(self):
        position = {r.unit.id: k for k, r in enumerate(self.regions)}
        if len(position) != len(self.regions):
            raise ConfigError("duplicate unit ids in design")
        object.__setattr__(self, "_position", position)

    @property
    def ds_regions(self) -> tuple[SampledRegion, ...]:
        return tuple(r for r in self.regions if r.is_ds)

    @property
    def cr_regions(self) -> tuple[SampledRegion, ...]:
        return tuple(r for r in self.regions if not r.is_ds)

    @property
    def units(self) -> tuple[SurveyUnit, ...]:
        return tuple(r.unit for r in self.regions)

    def region_by_id(self, unit_id: str) -> SampledRegion:
        try:
            return self.regions[self._position[unit_id]]
        except KeyError:
            raise DataError(f"unknown unit id {unit_id!r}") from None

    def positions(self, unit_ids) -> np.ndarray:
        """Each id's position in ``regions``, -1 for an id of no unit, in
        one pass over the ids."""
        return np.fromiter(map(self._position.get, unit_ids, repeat(-1)),
                           dtype=int, count=len(unit_ids))


def _spacing_layout(lo, hi, spacing):
    """Per axis, the midpoint grid over [lo, hi] whose cells are at most
    ``spacing`` wide, as (origin, first, step, count): cell m of an axis is
    centred at ``origin + (first + m + 0.5) * step``. Elementwise over
    arrays."""
    count = np.maximum(1, np.ceil((hi - lo) / spacing)).astype(np.int64)
    return lo, np.zeros_like(count), (hi - lo) / count, count


def _native_layout(lo, hi, origin, step):
    """Per axis, the cells of the external grid with the given origin and
    step that cover [lo, hi], in the form of ``_spacing_layout``."""
    first = np.floor((lo - origin) / step).astype(np.int64)
    count = np.ceil((hi - origin) / step).astype(np.int64) - first + 1
    return (np.broadcast_to(origin, lo.shape), first,
            np.broadcast_to(step, lo.shape), count)


def _axis_centres(origin, first, step, count):
    """Cell centres along one axis of each grid: (grids, count) from
    columns (grids, 1) of a layout that share one count."""
    return origin + ((first + np.arange(count)) + 0.5) * step


def _bounds(target) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) corners of ``target``'s bounding box, lower then upper."""
    bbox = np.array(target.bbox(), dtype=float)
    return bbox[:2], bbox[2:]


def _grid_nodes(target, layout, within: StudyRegion | None):
    """The nodes of one grid ``layout`` (per-axis arrays of shape (2,))
    that lie in ``target`` and ``within``, row by row, and their weights."""
    xs, ys = (_axis_centres(*(part[a] for part in layout)) for a in (0, 1))
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = target.contains(pts)
    if within is not None:
        keep &= within.contains(pts)
    step = layout[2]
    return pts[keep], np.full(int(keep.sum()), step[0] * step[1])


def _strip_nodes(region: SampledRegion, spacing: float,
                 within: StudyRegion | None):
    """Per-segment midpoint grid in (along, across) strip coordinates,
    clipped to ``within``: the nodes and their weights."""
    w = region.radius
    verts = region.unit.xy
    nodes, weights = [], []
    for i in range(len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        seg = b - a
        ell = float(np.sqrt(seg @ seg))
        if ell == 0:
            continue
        direction = seg / ell
        normal = np.array([-direction[1], direction[0]])
        nt = max(1, int(math.ceil(ell / spacing)))
        nn = max(1, int(math.ceil(2 * w / spacing)))
        ht, hn = ell / nt, 2 * w / nn
        t = (np.arange(nt) + 0.5) * ht
        n = -w + (np.arange(nn) + 0.5) * hn
        tt, nnd = np.meshgrid(t, n)
        pts = (a + tt.ravel()[:, None] * direction
               + nnd.ravel()[:, None] * normal)
        nodes.append(pts)
        weights.append(np.full(len(pts), ht * hn))
    pts, weights = np.vstack(nodes), np.concatenate(weights)
    if within is None:
        return pts, weights
    keep = within.contains(pts)
    return pts[keep], weights[keep]


def _disk_nodes(centre, r2, origin, first, step, count,
                within: StudyRegion | None):
    """The grid nodes inside each of k disks and ``within``, in one array
    pass per grid shape.

    Disk i has centre ``centre[i]``, squared radius ``r2[i]`` and the grid
    laid out by row i of the (k, 2) per-axis layout arrays. Returns the
    nodes in disk order, each disk's row by row, with the index of their
    disk and their squared distance to its centre.
    """
    # Grids of one shape share one broadcast; a disk's count can differ
    # from another of the same radius by one ceil step.
    key = count[:, 0] * (int(count[:, 1].max(initial=0)) + 1) + count[:, 1]
    order = np.argsort(key, kind="stable")
    parts = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))]
    for idx in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        if len(idx) == 0:
            continue
        col = idx[:, None]
        xs = _axis_centres(origin[col, 0], first[col, 0], step[col, 0],
                           count[idx[0], 0])
        ys = _axis_centres(origin[col, 1], first[col, 1], step[col, 1],
                           count[idx[0], 1])
        dx = xs - centre[col, 0]
        dy = ys - centre[col, 1]
        q = (dx * dx)[:, None, :] + (dy * dy)[:, :, None]
        inside = q <= r2[idx, None, None]
        parts.append((np.broadcast_to(xs[:, None, :], q.shape)[inside],
                      np.broadcast_to(ys[:, :, None], q.shape)[inside],
                      np.broadcast_to(idx[:, None, None], q.shape)[inside],
                      q[inside]))
    # One coordinate per array throughout: numpy gathers and masks rows of
    # an (n, 2) array several times slower than two columns.
    x, y, disk, q = (np.concatenate(p) for p in zip(*parts))
    if within is not None:
        keep = within.contains(np.column_stack([x, y]))
        x, y, disk, q = x[keep], y[keep], disk[keep], q[keep]
    # Groups come in shape order; a stable sort restores disk order and
    # keeps each disk's nodes row by row.
    back = np.argsort(disk, kind="stable")
    return np.column_stack([x[back], y[back]]), disk[back], q[back]


def region_nodes(regions, spacing=None, grid=None,
                 within: StudyRegion | None = None):
    """The quadrature nodes of every region in ``regions``, in region order.

    Each region gets a midpoint rule clipped to it and to ``within``. With
    ``spacing`` (one per region) a disk's grid of cells at most
    ``spacing[k]`` wide is centred on its bounding box, and a strip's lies
    in each segment's (along, across) frame, which tiles it exactly. With
    ``grid`` = (x0, y0, dx, dy) the nodes are the cell centres of that
    external grid, such as a covariate field's. Disks are laid out in one
    array pass; strips one at a time. Returns the nodes, their weights,
    each node's region index, its squared distance to its region's unit,
    and each region's measure (the sum of its weights). Raises ConfigError
    naming the first region, in order, that holds no node.
    """
    n = len(regions)
    is_disk = np.array([reg.unit.kind != TRANSECT for reg in regions],
                       dtype=bool)
    disks = [reg for reg in regions if reg.unit.kind != TRANSECT]
    centre = np.array([reg.unit.xy for reg in disks], dtype=float)
    centre = centre.reshape(-1, 2)
    radius = np.array([reg.radius for reg in disks], dtype=float)[:, None]
    if grid is None:
        layout = _spacing_layout(
            centre - radius, centre + radius,
            np.asarray(spacing, dtype=float)[is_disk, None])
    else:
        origin, step = (np.array(grid[:2], dtype=float),
                        np.array(grid[2:], dtype=float))
        layout = _native_layout(centre - radius, centre + radius, origin,
                                step)
    xy, disk, q = _disk_nodes(
        centre, np.array([reg.radius ** 2 for reg in disks], dtype=float),
        *layout, within)
    parts = [(xy, (layout[2][:, 0] * layout[2][:, 1])[disk],
              np.flatnonzero(is_disk)[disk], np.sqrt(q) ** 2)]
    for k in np.flatnonzero(~is_disk):
        reg = regions[k]
        if grid is None:
            pts, w = _strip_nodes(reg, spacing[k], within)
        else:
            pts, w = _grid_nodes(
                reg, _native_layout(*_bounds(reg), origin, step), within)
        parts.append((pts, w, np.full(len(pts), k), reg.distance(pts) ** 2))
    xy, w, index, d2 = (np.concatenate(p) for p in zip(*parts))
    if len(parts) > 1:
        back = np.argsort(index, kind="stable")
        xy, w, index, d2 = xy[back], w[back], index[back], d2[back]

    counts = np.bincount(index, minlength=n)
    if n and not counts.all():
        k = int(np.argmin(counts))
        if grid is not None:
            what = "no native-grid cell centers"
        elif is_disk[k]:
            what = f"spacing {spacing[k]} too coarse: no quadrature nodes"
        else:
            what = "no strip quadrature nodes"
        raise ConfigError(f"{what} fall in the region of unit "
                          f"{regions[k].unit.id!r}")
    # np.add.reduceat adds each run to its first element, where np.sum
    # starts from zero; a zero ahead of every run gives each measure the
    # bits of the region's own weights.sum().
    padded = np.zeros(len(w) + n)
    padded[np.arange(len(w)) + index + 1] = w
    starts = np.cumsum(counts + 1) - (counts + 1)
    measure = np.add.reduceat(padded, starts) if n else np.zeros(0)
    return xy, w, index, d2, measure


def line_template(unit: SurveyUnit) -> tuple[np.ndarray, np.ndarray]:
    """Anchors and unit directions of the line-support nodes of ``unit``:
    at recorded distance d the nodes are ``anchor + d * direction``.

    Circles get ``_LINE_NODES`` equally spaced angles around the point;
    transects get nodes spread over the segments by length, once on each
    side.
    """
    if unit.kind != TRANSECT:
        theta = (np.arange(_LINE_NODES) + 0.5) * (2.0 * math.pi / _LINE_NODES)
        return (np.broadcast_to(unit.xy, (_LINE_NODES, 2)),
                np.column_stack([np.cos(theta), np.sin(theta)]))
    verts = unit.xy
    total_len = 2.0 * polyline_length(verts)
    anchors, directions = [], []
    for a, b in zip(verts[:-1], verts[1:]):
        seg = b - a
        ell = float(np.sqrt(seg @ seg))
        if ell == 0:
            continue
        normal = np.array([-seg[1], seg[0]]) / ell
        n_seg = max(1, int(round(_LINE_NODES * ell / total_len)))
        t = (np.arange(n_seg) + 0.5) / n_seg
        base = a + t[:, None] * seg
        for side in (+1.0, -1.0):
            anchors.append(base)
            directions.append(np.broadcast_to(side * normal, base.shape))
    return np.vstack(anchors), np.vstack(directions)


@dataclass(frozen=True, eq=False)
class PartitionGrid:
    """Rectangular nx-by-ny tiling of the study region bounds.

    Cells are half-open in x and y except at the outer boundary, so every
    interior location belongs to exactly one cell. A cell is sampled when
    some unit's reference geometry (the point/trap location or the transect
    polyline) intersects it.
    """

    region: StudyRegion
    nx: int
    ny: int
    sampled: np.ndarray = field(default=None)  # (nx*ny,) bool

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        return self.region.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.region.height / self.ny

    @property
    def cell_area(self) -> float:
        return self.cell_width * self.cell_height

    def cell_index(self, pts: np.ndarray) -> np.ndarray:
        """Flat cell index (iy * nx + ix) for each location."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ix = np.floor((pts[:, 0] - self.region.xmin) / self.cell_width).astype(int)
        iy = np.floor((pts[:, 1] - self.region.ymin) / self.cell_height).astype(int)
        ix = np.clip(ix, 0, self.nx - 1)
        iy = np.clip(iy, 0, self.ny - 1)
        return iy * self.nx + ix

    def cell_centers(self) -> np.ndarray:
        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        gx, gy = np.meshgrid(
            self.region.xmin + (ix + 0.5) * self.cell_width,
            self.region.ymin + (iy + 0.5) * self.cell_height,
        )
        return np.column_stack([gx.ravel(), gy.ravel()])


def build_partitions(region: StudyRegion, nx: int, ny: int,
                     design: SurveyDesign) -> PartitionGrid:
    """Tile the region and flag cells intersected by a unit's geometry.

    Transects are marched at a quarter of the cell size so every crossed
    cell is flagged, and the cell of each transect's reference point,
    where ``aggregate_counts`` files its observations, is flagged too: a
    midpoint on a cell edge can round into a cell the march misses.
    """
    if nx < 1 or ny < 1:
        raise ConfigError("partition counts must be >= 1")
    grid = PartitionGrid(region, nx, ny, sampled=None)
    step = 0.25 * min(grid.cell_width, grid.cell_height)
    pts = [np.zeros((0, 2))]
    for unit in design.units:
        if unit.kind == TRANSECT:
            verts = unit.xy
            pts.append(verts[:1])
            pts.append(unit.reference_point[None, :])
            for i in range(len(verts) - 1):
                seg = verts[i + 1] - verts[i]
                ell = float(np.sqrt(seg @ seg))
                n = max(1, int(math.ceil(ell / step)))
                t = (np.arange(1, n + 1)) / n
                pts.append(verts[i] + t[:, None] * seg)
        else:
            pts.append(unit.xy[None, :])
    sampled = np.zeros(grid.n_cells, dtype=bool)
    sampled[grid.cell_index(np.vstack(pts))] = True
    return PartitionGrid(region, nx, ny, sampled=sampled)


def overlap_pairs(xy, radius, regions=None) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j in (i, j) order, of overlapping
    regions: disks centred at the rows of ``xy`` with ``radius``, or, where
    ``regions`` holds a strip, that strip. Regions that touch overlap.

    Disk pairs are exact; a pair with a strip takes the distance to the
    polyline, slightly conservative past a transect's ends. Only pairs
    whose bounding boxes meet are tested, found by one sweep over the boxes
    sorted by their lower x edge; the boxes are padded by a margin far
    above rounding, so every overlapping pair is among them.
    """
    n = len(radius)
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    lo = xy - radius[:, None]
    hi = xy + radius[:, None]
    strip = np.zeros(n, dtype=bool)
    if regions is not None:
        strip[:] = [r.unit.kind == TRANSECT for r in regions]
        for k in np.flatnonzero(strip):
            lo[k], hi[k] = _bounds(regions[k])
    pad = 1e-9 * max(np.abs(lo).max(), np.abs(hi).max())
    lo -= pad
    hi += pad
    # Box p of the sorted order meets in x the boxes q > p whose lower x
    # edge is at most its upper one: counts[p] of them, q = p + 1, ....
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    counts = np.searchsorted(lo[:, 0], hi[:, 0], side="right") \
        - np.arange(1, n + 1)
    # Rows p in blocks of about n such pairs, so that memory grows with the
    # number of regions, not of pairs.
    ends = np.cumsum(counts)
    blocks = np.split(np.arange(n), np.searchsorted(
        ends, np.arange(n, ends[-1], n), side="right"))
    hits = []
    for rows in blocks:
        c = counts[rows]
        p = np.repeat(rows, c)
        q = np.arange(len(p)) + np.repeat(rows + 1 - (np.cumsum(c) - c), c)
        meet = (lo[q, 1] <= hi[p, 1]) & (lo[p, 1] <= hi[q, 1])
        a, b = order[p[meet]], order[q[meet]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        d = np.sqrt(((xy[i] - xy[j]) ** 2).sum(axis=1))
        for k in np.flatnonzero(strip[i] | strip[j]):
            d[k] = _strip_distance(regions[i[k]], regions[j[k]])
        hit = d <= radius[i] + radius[j]
        hits.append((i[hit], j[hit]))
    i, j = (np.concatenate(h) for h in zip(*hits))
    back = np.lexsort((j, i))
    return i[back], j[back]


def _strip_distance(a: SampledRegion, b: SampledRegion) -> float:
    """The distance between the units of a pair with a strip: from the
    disk's centre to the polyline, or the least vertex-to-polyline distance
    of two polylines either way."""
    strip, other = (a, b) if a.unit.kind == TRANSECT else (b, a)
    if other.unit.kind == TRANSECT:
        return min(float(distance_to_unit(strip.unit.xy, other.unit).min()),
                   float(distance_to_unit(other.unit.xy, strip.unit).min()))
    return float(distance_to_unit(other.unit.xy, strip.unit))


def check_nonoverlap(design: SurveyDesign) -> tuple[bool, list[tuple[str, str]]]:
    """True when all sampled regions are pairwise disjoint, with the
    overlapping pairs (i < j in design order); see ``overlap_pairs``."""
    regions = design.regions
    xy = np.array([(0.0, 0.0) if r.unit.kind == TRANSECT else r.unit.xy
                   for r in regions], dtype=float).reshape(-1, 2)
    radius = np.array([r.radius for r in regions], dtype=float)
    i, j = overlap_pairs(xy, radius, regions)
    offending = [(regions[a].unit.id, regions[b].unit.id)
                 for a, b in zip(i.tolist(), j.tolist())]
    return (len(offending) == 0, offending)


# A transect of some thousands of vertices is one geometry field longer
# than the csv module's default limit of 128 KiB.
csv.field_size_limit(max(csv.field_size_limit(), 2 ** 31 - 1))


def _write_csv(path, header, rows) -> None:
    """``header`` and ``rows`` to ``path`` in the csv module's default
    dialect (which quotes as needed) with "\\n" line ends; floats by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else str(v)
                          for v in row] for row in rows)


def _read_csv(path):
    """(file line, stripped fields) of each non-blank row of a table file;
    a row the csv module cannot read is a DataError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                fields = [f.strip() for f in row]
                if fields not in ([], [""]):
                    yield reader.line_num, fields
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def load_design(path) -> SurveyDesign:
    """Read a `id,kind,radius,geometry` design file.

    Geometry is `x y` for points/traps and `x1 y1;x2 y2;...` for transects.
    """
    regions = []
    rows = _read_csv(path)
    _, header = next(rows, (0, []))
    if [h.lower() for h in header] != ["id", "kind", "radius", "geometry"]:
        raise DataError(f"{path}: expected header 'id,kind,radius,geometry'")
    for lineno, parts in rows:
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 comma-separated fields")
        uid, kind, radius_s, geom = parts
        try:
            radius = float(radius_s)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad radius {radius_s!r}") from exc
        try:
            pieces = [p.split() for p in geom.split(";") if p.strip()]
            coords = np.array([[float(a), float(b)] for a, b in pieces])
        except Exception as exc:
            raise DataError(f"{path}:{lineno}: bad geometry {geom!r}") from exc
        # A point or trap needs exactly one pair; SurveyUnit refuses the
        # flattened coordinates of none or several.
        xy = coords if kind == TRANSECT else coords.ravel()
        try:
            regions.append(SampledRegion(SurveyUnit(uid, kind, xy), radius))
        except ConfigError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return SurveyDesign(tuple(regions))


def save_design(design: SurveyDesign, path) -> None:
    _write_csv(path, ("id", "kind", "radius", "geometry"), (
        (r.unit.id, r.unit.kind, float(r.radius),
         ";".join(f"{float(x)!r} {float(y)!r}"
                  for x, y in np.atleast_2d(r.unit.xy)))
        for r in design.regions))
